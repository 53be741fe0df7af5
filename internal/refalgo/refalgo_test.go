package refalgo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitonicSortSmall(t *testing.T) {
	xs := []uint32{5, 1, 4, 2, 8, 7, 6, 3}
	BitonicSort(xs)
	if !IsSorted(xs) {
		t.Fatalf("not sorted: %v", xs)
	}
}

func TestBitonicSortProperty(t *testing.T) {
	check := func(seed int64, logn uint8) bool {
		n := 1 << (logn%9 + 1)
		rng := rand.New(rand.NewSource(seed))
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = rng.Uint32()
		}
		orig := append([]uint32(nil), xs...)
		BitonicSort(xs)
		return IsSorted(xs) && IsPermutation(orig, xs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

func TestBitonicSortNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=6")
		}
	}()
	BitonicSort(make([]uint32, 6))
}

func TestIsSortedAndPermutation(t *testing.T) {
	if !IsSorted([]uint32{1, 2, 2, 3}) || IsSorted([]uint32{2, 1}) {
		t.Fatal("IsSorted wrong")
	}
	if !IsPermutation([]uint32{3, 1, 2}, []uint32{1, 2, 3}) {
		t.Fatal("permutation not recognized")
	}
	if IsPermutation([]uint32{1, 1, 2}, []uint32{1, 2, 2}) {
		t.Fatal("multiset mismatch not detected")
	}
	if IsPermutation([]uint32{1}, []uint32{1, 1}) {
		t.Fatal("length mismatch not detected")
	}
}

func TestMergeKeepLowHigh(t *testing.T) {
	a := []uint32{1, 4, 9, 12}
	b := []uint32{2, 3, 10, 30}
	low := MergeKeepLow(a, b)
	high := MergeKeepHigh(a, b)
	wantLow := []uint32{1, 2, 3, 4}
	wantHigh := []uint32{9, 10, 12, 30}
	for i := range wantLow {
		if low[i] != wantLow[i] {
			t.Fatalf("low = %v", low)
		}
		if high[i] != wantHigh[i] {
			t.Fatalf("high = %v", high)
		}
	}
}

func TestMergeSplitProperty(t *testing.T) {
	// Property: low ∪ high is a permutation of a ∪ b, both halves sorted,
	// and max(low) <= min(high).
	check := func(seed int64, ln uint8) bool {
		n := int(ln%16) + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint32, n)
		b := make([]uint32, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Uint32() % 100
			b[i] = rng.Uint32() % 100
		}
		BitonicSort22 := func(x []uint32) {
			for i := 1; i < len(x); i++ {
				for j := i; j > 0 && x[j-1] > x[j]; j-- {
					x[j-1], x[j] = x[j], x[j-1]
				}
			}
		}
		BitonicSort22(a)
		BitonicSort22(b)
		low := MergeKeepLow(a, b)
		high := MergeKeepHigh(a, b)
		if !IsSorted(low) || !IsSorted(high) {
			return false
		}
		if low[len(low)-1] > high[0] {
			return false
		}
		all := append(append([]uint32(nil), a...), b...)
		got := append(append([]uint32(nil), low...), high...)
		return IsPermutation(all, got)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(76))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		got := FFT(x)
		want := DFT(x)
		if d := MaxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: FFT vs DFT diff %g", n, d)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	got := FFT(x)
	for i, v := range got {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// FFT of a constant is an impulse of height n at bin 0.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	got := FFT(x)
	if math.Abs(real(got[0])-float64(n)) > 1e-9 {
		t.Fatalf("bin0 = %v", got[0])
	}
	for i := 1; i < n; i++ {
		if math.Hypot(real(got[i]), imag(got[i])) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Property: sum |x|^2 * n == sum |X|^2 (Parseval for unnormalized FFT).
	check := func(seed int64) bool {
		n := 32
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var ex float64
		for i := range x {
			x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		X := FFT(x)
		var eX float64
		for _, v := range X {
			eX += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(eX-ex*float64(n)) < 1e-6*(1+eX)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(159))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=12")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestMaxAbsDiff(t *testing.T) {
	a := []complex128{1, 2 + 2i}
	b := []complex128{1, 2 - 1i}
	if d := MaxAbsDiff(a, b); math.Abs(d-3) > 1e-12 {
		t.Fatalf("diff = %v, want 3", d)
	}
}

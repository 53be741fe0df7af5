package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGlobalAddrPackRoundTrip(t *testing.T) {
	cases := []GlobalAddr{
		{PE: 0, Off: 0},
		{PE: 79, Off: 12345},
		{PE: MaxPE, Off: MaxOffset},
		{PE: 63, Off: 1 << 19},
	}
	for _, ga := range cases {
		if got := UnpackAddr(ga.Pack()); got != ga {
			t.Errorf("round trip %v -> %v", ga, got)
		}
	}
}

func TestGlobalAddrPackProperty(t *testing.T) {
	check := func(pe uint16, off uint32) bool {
		ga := GlobalAddr{PE: PE(pe % (MaxPE + 1)), Off: off % (MaxOffset + 1)}
		return UnpackAddr(ga.Pack()) == ga && ga.Valid()
	}
	if err := quick.Check(check, &quick.Config{Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalAddrValid(t *testing.T) {
	if (GlobalAddr{PE: -1, Off: 0}).Valid() {
		t.Error("negative PE reported valid")
	}
	if (GlobalAddr{PE: 0, Off: MaxOffset + 1}).Valid() {
		t.Error("oversized offset reported valid")
	}
	if !(GlobalAddr{PE: MaxPE, Off: MaxOffset}).Valid() {
		t.Error("maximal address reported invalid")
	}
}

func TestGlobalAddrAdd(t *testing.T) {
	ga := GlobalAddr{PE: 5, Off: 100}
	got := ga.Add(28)
	if got.PE != 5 || got.Off != 128 {
		t.Fatalf("Add(28) = %v", got)
	}
}

func TestPacketDst(t *testing.T) {
	req := Packet{Kind: KindReadReq, Addr: GlobalAddr{PE: 9}, Cont: Continuation{PE: 2}}
	if req.Dst() != 9 {
		t.Fatalf("read-req dst = %d, want 9 (addressed PE)", req.Dst())
	}
	rep := Packet{Kind: KindReadReply, Addr: GlobalAddr{PE: 9}, Cont: Continuation{PE: 2}}
	if rep.Dst() != 2 {
		t.Fatalf("read-reply dst = %d, want 2 (continuation PE)", rep.Dst())
	}
	w := Packet{Kind: KindWrite, Addr: GlobalAddr{PE: 4}}
	if w.Dst() != 4 {
		t.Fatalf("write dst = %d, want 4", w.Dst())
	}
	inv := Packet{Kind: KindInvoke, Addr: GlobalAddr{PE: 7}}
	if inv.Dst() != 7 {
		t.Fatalf("invoke dst = %d, want 7", inv.Dst())
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindReadReq:      "read-req",
		KindBlockReadReq: "block-read-req",
		KindReadReply:    "read-reply",
		KindWrite:        "write",
		KindInvoke:       "invoke",
		KindSync:         "sync",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("out-of-range kind string = %q", Kind(200).String())
	}
}

func TestStringsNonEmpty(t *testing.T) {
	p := Packet{Kind: KindReadReq, Src: 1, Addr: GlobalAddr{PE: 2, Off: 3}, Cont: Continuation{PE: 1, Frame: 4, Slot: 5}}
	if p.String() == "" || p.Addr.String() == "" || p.Cont.String() == "" {
		t.Error("empty String() output")
	}
}

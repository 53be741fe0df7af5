package isa

import (
	"os"
	"strings"
	"testing"

	"emx/internal/core"
	"emx/internal/packet"
	"emx/internal/refalgo"
)

func mustAsm(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOn(t *testing.T, p int, prog *Program, entry string, arg packet.Word) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig(p)
	cfg.MemWords = 1 << 12
	cfg.MaxCycles = 10_000_000
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Spawn(m, 0, prog, entry, arg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":  "frob r1, r2, r3\nhalt",
		"bad register":      "add r1, r2, r99\nhalt",
		"read-only dest":    "li zero, 4\nhalt",
		"arg read-only":     "addi arg, arg, 1\nhalt",
		"bad operand count": "add r1, r2\nhalt",
		"undefined label":   "j nowhere\nhalt",
		"duplicate label":   "x: nop\nx: halt",
		"empty program":     "; nothing\n",
		"bad immediate":     "li r1, banana\nhalt",
		"bad mem operand":   "ld r1, r2\nhalt",
	}
	for name, src := range cases {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestAssembleLabelsAndComments(t *testing.T) {
	p := mustAsm(t, `
; leading comment
start:
    li r1, 0x10      # hex immediate
loop:
    addi r1, r1, -1
    bne r1, zero, loop
done: halt
`)
	if len(p.Code) != 4 {
		t.Fatalf("code length %d, want 4", len(p.Code))
	}
	for _, label := range []string{"start", "loop", "done"} {
		if _, err := p.Entry(label); err != nil {
			t.Errorf("missing label %s", label)
		}
	}
	if _, err := p.Entry("nope"); err == nil {
		t.Error("bogus entry accepted")
	}
}

func TestALUProgram(t *testing.T) {
	// Compute ((7+5)*3 - 6) >> 1 = 15 and store to memory[100].
	prog := mustAsm(t, `
main:
    li r1, 7
    li r2, 5
    add r3, r1, r2
    muli r3, r3, 3
    addi r3, r3, -6
    srli r3, r3, 1
    li r4, 100
    st r3, 0(r4)
    halt
`)
	m := runOn(t, 1, prog, "main", 0)
	if got := m.Mem(0).Peek(100); got != 15 {
		t.Fatalf("result = %d, want 15", got)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 = 55.
	prog := mustAsm(t, `
main:
    li r1, 0      ; sum
    li r2, 1      ; i
    li r3, 11
loop:
    add r1, r1, r2
    addi r2, r2, 1
    blt r2, r3, loop
    li r4, 200
    st r1, 0(r4)
    halt
`)
	m := runOn(t, 1, prog, "main", 0)
	if got := m.Mem(0).Peek(200); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestFloatOps(t *testing.T) {
	// (3.0 + 1.0) * 2.0 / 8.0 = 1.0 -> ftoi -> 1.
	prog := mustAsm(t, `
main:
    li r1, 3
    itof r1, r1
    li r2, 1
    itof r2, r2
    fadd r3, r1, r2
    li r4, 2
    itof r4, r4
    fmul r3, r3, r4
    li r5, 8
    itof r5, r5
    fdiv r3, r3, r5
    ftoi r6, r3
    li r7, 300
    st r6, 0(r7)
    halt
`)
	m := runOn(t, 1, prog, "main", 0)
	if got := m.Mem(0).Peek(300); got != 1 {
		t.Fatalf("float result = %d, want 1", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	prog := mustAsm(t, `
main:
    li r1, 400
    st arg, 0(r1)
    st pe, 1(r1)
    st npe, 2(r1)
    halt
`)
	m := runOn(t, 4, prog, "main", 77)
	if m.Mem(0).Peek(400) != 77 || m.Mem(0).Peek(401) != 0 || m.Mem(0).Peek(402) != 4 {
		t.Fatalf("specials = %d %d %d", m.Mem(0).Peek(400), m.Mem(0).Peek(401), m.Mem(0).Peek(402))
	}
}

func TestRemoteReadWrite(t *testing.T) {
	// PE0 writes 99 to PE1[50], reads it back, stores locally at 60.
	prog := mustAsm(t, `
main:
    li r1, 1        ; target PE
    li r2, 50       ; offset
    gaddr r3, r1, r2
    li r4, 99
    rwrite r3, r4
    rread r5, r3
    li r6, 60
    st r5, 0(r6)
    halt
`)
	m := runOn(t, 2, prog, "main", 0)
	if got := m.Mem(1).Peek(50); got != 99 {
		t.Fatalf("remote write: %d", got)
	}
	if got := m.Mem(0).Peek(60); got != 99 {
		t.Fatalf("read back: %d", got)
	}
}

func TestSpawnAcrossPEs(t *testing.T) {
	// main spawns child on every PE; each child writes its PE number into
	// PE0's memory at 500+pe.
	prog := mustAsm(t, `
main:
    li r1, 0          ; pe iterator
loop:
    spawn r1, child, r1
    addi r1, r1, 1
    blt r1, npe, loop
    halt
child:
    li r2, 500
    add r2, r2, arg
    li r3, 0
    gaddr r4, r3, r2
    rwrite r4, pe
    halt
`)
	m := runOn(t, 4, prog, "main", 0)
	for pe := 0; pe < 4; pe++ {
		if got := m.Mem(0).Peek(uint32(500 + pe)); got != packet.Word(pe) {
			t.Fatalf("child on PE%d wrote %d", pe, got)
		}
	}
}

func TestYieldInstruction(t *testing.T) {
	prog := mustAsm(t, `
main:
    yield
    yield
    halt
`)
	cfg := core.DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Spawn(m, 0, prog, "main", 0); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.PEs[0].Switches[3] != 2 { // SwitchExplicit
		t.Fatalf("explicit switches = %d, want 2", r.PEs[0].Switches[3])
	}
}

func TestRunawayProgramCaught(t *testing.T) {
	prog := mustAsm(t, `
spin:
    j spin
`)
	cfg := core.DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, _ := core.NewMachine(cfg)
	fn, err := Thread(prog, "spin")
	if err != nil {
		t.Fatal(err)
	}
	m.SpawnAt(0, "spin", 0, fn)
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("runaway not caught: %v", err)
	}
}

func TestInstructionTimingCharged(t *testing.T) {
	// 1000 one-cycle adds must charge 1000 compute cycles (plus the li).
	prog := mustAsm(t, `
main:
    li r1, 0
    li r2, 1000
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
`)
	cfg := core.DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, _ := core.NewMachine(cfg)
	if err := Spawn(m, 0, prog, "main", 0); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 + 2*1000) // 2 li + 1000*(addi+blt)
	if got := int64(r.PEs[0].Times.Compute); got != want {
		t.Fatalf("compute = %d, want %d", got, want)
	}
}

func TestOpStringsAndCycles(t *testing.T) {
	if OpAdd.String() != "add" || OpRRead.String() != "rread" {
		t.Fatal("bad op names")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op empty name")
	}
	if OpLd.Cycles() != 2 || OpFdiv.Cycles() != 8 || OpAdd.Cycles() != 1 {
		t.Fatal("bad op cycle counts")
	}
}

func TestInstrString(t *testing.T) {
	p := mustAsm(t, "main:\n j main\n halt")
	if s := p.Code[0].String(); !strings.Contains(s, "j") {
		t.Fatalf("instr string %q", s)
	}
}

func TestDemoBitonic2SortsAcrossPEs(t *testing.T) {
	src, err := os.ReadFile("../../examples/asm/bitonic2.asm")
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAsm(t, string(src))
	cfg := core.DefaultConfig(2)
	cfg.MemWords = 1 << 10
	cfg.MaxCycles = 1_000_000
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both PEs run main (each sorts its side of the compare-split).
	for pe := packet.PE(0); pe < 2; pe++ {
		if err := Spawn(m, pe, prog, "main", 0); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Gather: inputs from the (sorted) local blocks, outputs from 16..19.
	var in, out []uint32
	for pe := packet.PE(0); pe < 2; pe++ {
		for i := uint32(0); i < 4; i++ {
			in = append(in, uint32(m.Mem(pe).Peek(i)))
			out = append(out, uint32(m.Mem(pe).Peek(16+i)))
		}
	}
	if !refalgo.IsSorted(out) {
		t.Fatalf("compare-split output not sorted: %v", out)
	}
	if !refalgo.IsPermutation(in, out) {
		t.Fatalf("output %v not a permutation of %v", out, in)
	}
	// The reads were split-phase: each PE suspended once per element.
	for pe := range r.PEs {
		if got := r.PEs[pe].Switches[0]; got != 4 { // SwitchRemoteRead
			t.Fatalf("PE%d remote-read switches = %d, want 4", pe, got)
		}
	}
}

func TestBlockReadInstruction(t *testing.T) {
	// The fourth send instruction: block read of 6 words from PE1 into
	// local memory at 100.
	prog := mustAsm(t, `
main:
    li r1, 1
    li r2, 40
    gaddr r3, r1, r2   ; PE1 + 40
    li r4, 100         ; local destination
    li r5, 6           ; word count
    rreadb r4, r3, r5
    halt
`)
	cfg := core.DefaultConfig(2)
	cfg.MemWords = 1 << 10
	m, _ := core.NewMachine(cfg)
	for i := uint32(0); i < 6; i++ {
		m.Mem(1).Poke(40+i, packet.Word(i*11))
	}
	if err := Spawn(m, 0, prog, "main", 0); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 6; i++ {
		if got := m.Mem(0).Peek(100 + i); got != packet.Word(i*11) {
			t.Fatalf("block[%d] = %d, want %d", i, got, i*11)
		}
	}
	// One suspension for the whole block.
	if got := r.PEs[0].Switches[0]; got != 1 {
		t.Fatalf("remote-read switches = %d, want 1", got)
	}
	if r.PEs[0].RemoteReads != 6 {
		t.Fatalf("remote reads = %d, want 6 words", r.PEs[0].RemoteReads)
	}
}

func TestBlockReadBadCountPanics(t *testing.T) {
	prog := mustAsm(t, `
main:
    li r1, 1
    li r2, 0
    gaddr r3, r1, r2
    li r4, 100
    rreadb r4, r3, zero   ; count = 0
    halt
`)
	cfg := core.DefaultConfig(2)
	cfg.MemWords = 1 << 10
	m, _ := core.NewMachine(cfg)
	if err := Spawn(m, 0, prog, "main", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("zero-length block read not rejected")
	}
}

func TestLoadStoreTimingNotDoubleCharged(t *testing.T) {
	// ld/st cost exactly the 2-cycle MCU access, not 2 (decode estimate)
	// plus 2 (MCU): li + st + ld + li = 1 + 2 + 2 + 1 = 6 compute cycles.
	prog := mustAsm(t, `
main:
    li r1, 10
    st r1, 0(zero)
    ld r2, 0(zero)
    li r3, 1
    halt
`)
	cfg := core.DefaultConfig(1)
	cfg.MemWords = 1 << 10
	m, _ := core.NewMachine(cfg)
	if err := Spawn(m, 0, prog, "main", 0); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PEs[0].Times.Compute; got != 6 {
		t.Fatalf("compute = %d, want 6", got)
	}
}

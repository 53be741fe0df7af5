package isa

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var errLine = regexp.MustCompile(`^prog:(\d+): `)

// FuzzAssemble feeds arbitrary source to the assembler emxasm exposes.
// It must never panic, and every error except an empty program must
// name a line of the source, as must every assembled instruction. The
// seed corpus in testdata/fuzz/FuzzAssemble holds the example programs
// and malformed lines.
func FuzzAssemble(f *testing.F) {
	f.Add(DemoBitonic2)
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Count(src, "\n") + 1
		p, err := Assemble("prog", src)
		if err != nil {
			if err.Error() == "prog: empty program" {
				return
			}
			m := errLine.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error does not name a source line: %v", err)
			}
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > lines {
				t.Fatalf("error names line %d of a %d-line source: %v", n, lines, err)
			}
			return
		}
		for _, ins := range p.Code {
			if ins.Line < 1 || ins.Line > lines {
				t.Fatalf("instruction %v has line %d of a %d-line source", ins, ins.Line, lines)
			}
		}
	})
}

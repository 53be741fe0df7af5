package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseTestPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{
		ImportPath: "test",
		Fset:       fset,
		Files:      []*ast.File{f},
		Sources:    map[string][]byte{"test.go": []byte(src)},
	}
	pkg.Directives = parseDirectives(pkg)
	return pkg
}

func TestParseDirectiveComment(t *testing.T) {
	cases := []struct {
		text      string
		name      string
		args      string
		malformed bool
		nil_      bool
	}{
		{text: "//emx:hostclock", name: "hostclock"},
		{text: "//emx:hostclock wall-clock only", name: "hostclock", args: "wall-clock only"},
		{text: "//emx:orderinvariant", name: "orderinvariant"},
		{text: "//emx:hostclok", name: "hostclok"}, // unknown but well-formed
		{text: "// emx:hostclock", malformed: true},
		{text: "//  emx:hostclock", malformed: true},
		{text: "//emx:", malformed: true},
		{text: "//emx:Host", name: "Host", malformed: true}, // uppercase: not a directive word
		{text: "// ordinary comment", nil_: true},
		{text: "//go:build linux", nil_: true},
		{text: "/* emx:hostclock */", nil_: true}, // block comments cannot carry directives
	}
	for _, c := range cases {
		d := parseDirectiveComment(c.text)
		if c.nil_ {
			if d != nil {
				t.Errorf("%q: parsed as directive %+v, want plain comment", c.text, d)
			}
			continue
		}
		if d == nil {
			t.Errorf("%q: not recognized", c.text)
			continue
		}
		if d.Malformed != c.malformed {
			t.Errorf("%q: malformed = %v, want %v", c.text, d.Malformed, c.malformed)
		}
		if !c.malformed && (d.Name != c.name || d.Args != c.args) {
			t.Errorf("%q: parsed as (%q, %q), want (%q, %q)", c.text, d.Name, d.Args, c.name, c.args)
		}
	}
}

const directiveSrc = `// Package p is a test package.
package p

//emx:hostclock
var a = 1

var b = 2 //emx:hostclock trailing

//emx:orderinvariant
//emx:hostclock
func f() {}
`

func TestEffectiveLine(t *testing.T) {
	pkg := parseTestPkg(t, directiveSrc)

	// Standalone directive governs the next line.
	if d := pkg.Directives.At("test.go", 5, DirHostClock); d == nil {
		t.Error("standalone //emx:hostclock on line 4 must govern line 5")
	}
	// Trailing directive governs its own line.
	if d := pkg.Directives.At("test.go", 7, DirHostClock); d == nil {
		t.Error("trailing //emx:hostclock must govern its own line")
	} else if d.Args != "trailing" {
		t.Errorf("args = %q, want %q", d.Args, "trailing")
	}
	// Stacked directives both govern the declaration line.
	if pkg.Directives.At("test.go", 11, DirOrderInvariant) == nil {
		t.Error("stacked //emx:orderinvariant must govern line 11")
	}
	if pkg.Directives.At("test.go", 11, DirHostClock) == nil {
		t.Error("stacked //emx:hostclock must govern line 11")
	}
}

func TestUnusedTracking(t *testing.T) {
	pkg := parseTestPkg(t, directiveSrc)
	if got := len(pkg.Directives.Unused(DirHostClock)); got != 3 {
		t.Fatalf("unused hostclock = %d, want 3", got)
	}
	d := pkg.Directives.At("test.go", 5, DirHostClock)
	pkg.Directives.Use(d)
	unused := pkg.Directives.Unused(DirHostClock)
	if len(unused) != 2 || unused[0].Line != 7 {
		t.Fatalf("after Use: unused = %+v, want the line-7 and line-10 directives", unused)
	}
}

func TestDirectiveMisuseIsReported(t *testing.T) {
	// A typo or misplacement must surface as a diagnostic somewhere —
	// either emxdirective (malformed/unknown) or the owning analyzer
	// (unused). Silently ignoring is the one forbidden outcome.
	src := `// Package p is a test package.
package p

// emx:hostclock
var a = 1

//emx:hostclok
var b = 2
`
	pkg := parseTestPkg(t, src)
	var diags []Diagnostic
	pass := &Pass{Analyzer: EmxDirective, Pkg: pkg, report: func(d Diagnostic) { diags = append(diags, d) }}
	EmxDirective.Run(pass)
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want malformed + unknown", diags)
	}
}

package lint

import (
	"bytes"
	"go/ast"
	"go/token"
	"strings"
)

// Directive names understood by the suite. Anything else after //emx:
// is an error (emxdirective reports it), so a typo can never silently
// disable a check.
const (
	// DirHostClock marks an intentional host-clock call site
	// (observability code measuring how fast the host ran, never
	// feeding back into simulated state). Consumed by detsource.
	DirHostClock = "hostclock"
	// DirOrderInvariant marks a map iteration whose effect is
	// order-invariant (a commutative reduction). Consumed by maporder.
	DirOrderInvariant = "orderinvariant"
	// DirHotPath marks a function that must stay allocation-free.
	// Consumed by hotalloc.
	DirHotPath = "hotpath"
	// DirColdPath marks a line inside a hot-path function that is a
	// cold error/diagnostic path, exempt from hotalloc. Consumed by
	// hotalloc.
	DirColdPath = "coldpath"
	// DirDeterminism, in a package doc comment, opts the package into
	// the determinism-critical set (detsource, maporder, and the
	// strict simtime/flushbefore rules). Consumed by the package
	// classifier.
	DirDeterminism = "determinism"
	// DirNoFingerprint, on a Config field declaration, attests that the
	// field is host-side only: excluded from Fingerprint AND proven not
	// to change simulation results. Consumed by fingerprintpurity.
	DirNoFingerprint = "nofingerprint"
	// DirObsHook marks a function declaration as an observability entry
	// point in addition to the built-in emx/internal/obs exports.
	// Consumed by obspurity.
	DirObsHook = "obshook"
	// DirObsExempt marks an audited line inside obs-reachable code that
	// intentionally touches machine state. Consumed by obspurity.
	DirObsExempt = "obsexempt"
)

var knownDirectives = map[string]bool{
	DirHostClock:      true,
	DirOrderInvariant: true,
	DirHotPath:        true,
	DirColdPath:       true,
	DirDeterminism:    true,
	DirNoFingerprint:  true,
	DirObsHook:        true,
	DirObsExempt:      true,
}

// Directive is one parsed //emx: comment.
type Directive struct {
	Name string // directive name ("hostclock"); "" when malformed
	Args string // free text after the name
	Raw  string // the comment text as written
	Pos  token.Pos
	File string
	Line int // line the comment appears on

	// EffectiveLine is the code line a line-targeted directive governs:
	// its own line for a trailing comment, the next code line (skipping
	// blank and comment-only lines, so directives stack) when the
	// directive stands alone.
	EffectiveLine int
	// PackageLevel is set for directives in the package doc comment.
	PackageLevel bool
	// Malformed is set for near-miss spellings ("// emx:x", "//emx: x")
	// that Go would treat as plain comments.
	Malformed bool

	used bool
}

// Directives indexes the //emx: comments of one package.
type Directives struct {
	all []*Directive
}

// All returns every directive in the package.
func (ds *Directives) All() []*Directive { return ds.all }

// At returns the directive with the given name whose effective line is
// (file, line), or nil.
func (ds *Directives) At(file string, line int, name string) *Directive {
	for _, d := range ds.all {
		if d.Name == name && d.File == file && d.EffectiveLine == line && !d.PackageLevel {
			return d
		}
	}
	return nil
}

// Use marks a directive as consumed by its owning analyzer.
func (ds *Directives) Use(d *Directive) { d.used = true }

// Unused returns the directives with the given name that no analyzer
// consumed, in source order.
func (ds *Directives) Unused(name string) []*Directive {
	var out []*Directive
	for _, d := range ds.all {
		if d.Name == name && !d.used && !d.Malformed {
			out = append(out, d)
		}
	}
	return out
}

// HasPackageDirective reports whether any file's package doc carries
// the named directive. Package-level directives are consumed by the
// classifier, so they are always marked used.
func (ds *Directives) HasPackageDirective(name string) bool {
	for _, d := range ds.all {
		if d.Name == name && d.PackageLevel {
			d.used = true
			return true
		}
	}
	return false
}

// parseDirectives scans every comment of the package for //emx:
// directives and near-miss spellings.
func parseDirectives(pkg *Package) *Directives {
	ds := &Directives{}
	for _, f := range pkg.Files {
		file := pkg.Fset.Position(f.Pos()).Filename
		src := pkg.Sources[file]
		lines := bytes.Split(src, []byte("\n"))
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseDirectiveComment(c.Text)
				if d == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d.Pos = c.Pos()
				d.File = pos.Filename
				d.Line = pos.Line
				d.EffectiveLine = pos.Line
				if ownLine(src, pos) {
					d.EffectiveLine = nextCodeLine(lines, pos.Line)
				}
				d.PackageLevel = cg == f.Doc
				ds.all = append(ds.all, d)
			}
		}
	}
	return ds
}

// parseDirectiveComment classifies one comment's text: a well-formed
// //emx:name directive, a malformed near-miss, or (nil) an ordinary
// comment.
func parseDirectiveComment(text string) *Directive {
	if !strings.HasPrefix(text, "//") {
		return nil // block comments cannot carry directives
	}
	body := text[2:]
	switch {
	case strings.HasPrefix(body, "emx:"):
		rest := body[len("emx:"):]
		name, args, _ := strings.Cut(rest, " ")
		d := &Directive{Name: name, Args: strings.TrimSpace(args), Raw: text}
		if name == "" || !isDirectiveWord(name) {
			d.Malformed = true
		}
		return d
	case strings.HasPrefix(strings.TrimLeft(body, " \t"), "emx:"):
		// "// emx:hostclock" — spaced out, Go sees a plain comment.
		return &Directive{Raw: text, Malformed: true}
	}
	return nil
}

// isDirectiveWord reports whether s looks like a directive name
// (lowercase letters only). Unknown-but-well-formed names are reported
// by emxdirective as unknown rather than malformed.
func isDirectiveWord(s string) bool {
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return len(s) > 0
}

// nextCodeLine returns the number of the first line after `line` that
// holds code (not blank, not a pure // comment), so stacked standalone
// directives all govern the declaration beneath them. Lines are
// 1-based.
func nextCodeLine(lines [][]byte, line int) int {
	for n := line + 1; n <= len(lines); n++ {
		s := bytes.TrimSpace(lines[n-1])
		if len(s) > 0 && !bytes.HasPrefix(s, []byte("//")) {
			return n
		}
	}
	return line + 1
}

// ownLine reports whether only whitespace precedes the comment on its
// line, i.e. the comment is not trailing code.
func ownLine(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	for _, b := range src[start:pos.Offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// nodeLine returns the starting line of a node.
func nodeLine(pkg *Package, n ast.Node) (file string, line int) {
	p := pkg.Fset.Position(n.Pos())
	return p.Filename, p.Line
}

// suppressedBy reports whether a node's line carries the named
// directive, marking it used.
func suppressedBy(pkg *Package, n ast.Node, name string) bool {
	file, line := nodeLine(pkg, n)
	if d := pkg.Directives.At(file, line, name); d != nil {
		pkg.Directives.Use(d)
		return true
	}
	return false
}

// EmxDirective reports malformed, unknown, and duplicated //emx:
// comments. The per-analyzer "unused directive" checks catch correctly
// spelled directives on lines they do not govern; this analyzer catches
// the spellings Go would otherwise treat as ordinary comments, and
// stacked duplicates of the same directive on one declaration — the
// lookup answers with the first copy, so the later ones silently do
// nothing and usually indicate a botched merge.
var EmxDirective = &Analyzer{
	Name: "emxdirective",
	Doc:  "check that every //emx: directive is well-formed, known, correctly placed, and not a duplicate",
	Run:  runEmxDirective,
}

// directiveSite identifies where a directive takes effect, for
// duplicate detection: two well-formed copies of one name governing the
// same line (or both sitting in a package doc) shadow each other.
type directiveSite struct {
	name         string
	file         string
	line         int
	packageLevel bool
}

func runEmxDirective(pass *Pass) {
	seen := map[directiveSite]*Directive{}
	for _, d := range pass.Pkg.Directives.All() {
		switch {
		case d.Malformed:
			pass.Reportf(d.Pos, "malformed emx directive %q (want //emx:name, no spaces)", d.Raw)
		case !knownDirectives[d.Name]:
			pass.Reportf(d.Pos, "unknown emx directive //emx:%s (known: %s)", d.Name, knownNames())
		case d.Name == DirDeterminism && !d.PackageLevel:
			pass.Reportf(d.Pos, "//emx:determinism must appear in the package doc comment")
		default:
			site := directiveSite{d.Name, d.File, d.EffectiveLine, d.PackageLevel}
			if first, dup := seen[site]; dup {
				pass.ReportRelated(d.Pos,
					[]Related{pass.RelatedAt(first.Pos, "first //emx:%s here", d.Name)},
					"duplicate //emx:%s directive: an earlier copy already governs line %d",
					d.Name, d.EffectiveLine)
			} else {
				seen[site] = d
			}
		}
	}
}

func knownNames() string {
	return strings.Join([]string{
		DirColdPath, DirDeterminism, DirHostClock, DirHotPath,
		DirNoFingerprint, DirObsExempt, DirObsHook, DirOrderInvariant,
	}, ", ")
}

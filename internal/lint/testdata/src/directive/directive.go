// Package directive exercises the directive well-formedness checks: a
// typo or misplacement must be reported, never silently ignored.
package directive

// emx:hostclock // want "malformed emx directive"
func A() {}

//emx:hostclok // want "unknown emx directive //emx:hostclok"
func B() {}

// C carries a directive that no analyzer consumes any more: a stale
// annotation is reported, not silently accepted.
//
//emx:obsexempt // want "unknown emx directive //emx:obsexempt"
func C() {}

// D carries a well-formed, known directive; whether it is USED is the
// owning analyzer's business (detsource), not emxdirective's, so no
// finding is expected here.
//
//emx:hostclock
func D() {}

// E stacks the SAME directive twice over one declaration: the lookup
// answers with the first copy, so the second silently does nothing —
// usually a botched merge. Only the duplicate is reported.
//
//emx:hostclock
//emx:hostclock // want "duplicate //emx:hostclock directive"
func E() {}

// F stacks two DIFFERENT directives: both govern the next code line,
// which is the whole point of stacking, so no finding.
//
//emx:orderinvariant
//emx:hostclock
func F() {}

// G has one standalone and one trailing copy of a directive aimed at
// the same line: duplicates too, even across placement styles.
func G() {
	//emx:orderinvariant
	x := 0 //emx:orderinvariant // want "duplicate //emx:orderinvariant directive"
	_ = x
}

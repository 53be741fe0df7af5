// Command emxvet runs the repository's determinism and directive
// analyzers (internal/lint) over Go packages, go-vet style.
//
// Usage:
//
//	emxvet [-only name,name] [-json] [-list] [-explain] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 0 when the checked packages are clean, 1 when findings
// were reported, and 2 when the packages could not be loaded (which
// includes packages that do not compile).
//
// -explain attaches each finding's related positions (such as the
// first copy of a duplicated directive) to the text output; JSON
// output always carries them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"emx/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("emxvet", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list available analyzers and exit")
	explain := fs.Bool("explain", false, "print each finding's related positions in text output")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: emxvet [-only name,name] [-json] [-list] [-explain] [packages]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "emxvet: unknown analyzer %q (use -list to see available analyzers)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emxvet: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if diags == nil {
		diags = []lint.Diagnostic{} // JSON output stays an array, never null
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "emxvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *explain {
				for _, r := range d.Related {
					fmt.Printf("\t%s: %s\n", r.Pos, r.Message)
				}
			}
		}
	}
	if len(diags) > 0 {
		if !*asJSON {
			fmt.Fprintf(os.Stderr, "emxvet: %d findings\n", len(diags))
		}
		return 1
	}
	return 0
}

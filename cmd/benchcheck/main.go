// Command benchcheck gates documentation claims against the committed
// benchmark JSON: every markdown file passed via -claims is scanned for
// benchclaim annotations of the form
//
//	<!-- benchclaim file=BENCH_5.json path=data.speedup_vs_legacy value=1.10 tol=0.10 -->
//
// and each annotated value must match the committed JSON (resolved
// relative to the markdown file) within the relative tolerance. Prose
// headline numbers next to such an annotation therefore cannot drift
// from the measurement without failing the gate.
//
// Usage:
//
//	benchcheck -claims doc.md [-claims doc2.md]...
//
// Exits 0 when every claim holds, 1 with a diagnostic when one does
// not, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// claimsFlag collects repeated -claims markdown paths.
type claimsFlag []string

func (c *claimsFlag) String() string     { return fmt.Sprint([]string(*c)) }
func (c *claimsFlag) Set(v string) error { *c = append(*c, v); return nil }

func run(args []string) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var claims claimsFlag
	fs.Var(&claims, "claims",
		"markdown file whose benchclaim annotations must match the committed JSON (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(claims) == 0 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck -claims doc.md [-claims doc2.md]...")
		return 2
	}
	for _, doc := range claims {
		n, err := checkClaims(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", doc, err)
			return 1
		}
		fmt.Printf("benchcheck: %s ok (%d documented claims match their committed JSON)\n", doc, n)
	}
	return 0
}

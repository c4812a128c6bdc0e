package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"pipes/internal/analysis"
	"pipes/internal/analysis/vetutil"
)

// spawn flags every go statement an allow directive does not cover.
var spawn = &analysis.Analyzer{
	Name: "spawn",
	Run: func(pass *analysis.Pass) (any, error) {
		allow := vetutil.NewAllower(pass, "spawn")
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !allow.Allowed(g.Pos()) {
					pass.Reportf(g.Pos(), "go statement")
				}
				return true
			})
		}
		return nil, nil
	},
}

// TestRunCountsSuppressionsPerRun runs the same package through two
// loaders in one process: each run reports its own suppression count, not
// a running total.
func TestRunCountsSuppressionsPerRun(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f() {
	go f()
	//pipesvet:allow spawn reviewed launch
	go f()
	go f() //pipesvet:allow spawn reviewed launch
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		l := analysis.NewLoader(func(path string) (string, bool) { return dir, path == "p" })
		pkg, err := l.Load("p")
		if err != nil {
			t.Fatal(err)
		}
		diags := 0
		suppressed, err := l.Run(pkg, []*analysis.Analyzer{spawn}, func(*analysis.Analyzer, analysis.Diagnostic) { diags++ })
		if err != nil {
			t.Fatal(err)
		}
		if diags != 1 || suppressed != 2 {
			t.Errorf("run %d: %d diagnostics, %d suppressed; want 1 and 2", run, diags, suppressed)
		}
	}
}

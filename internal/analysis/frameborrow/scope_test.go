package frameborrow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"pipes/internal/analysis/vetutil"
)

// Every package of the module that defines a sink — a method
// ProcessBatch or Process taking a temporal frame or element — is in the
// analyzer's scope: a sink outside it could keep lent values unseen.
func TestScopeCoversEverySink(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Join("pipes", rel))
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && definesSink(fd) && !vetutil.InScope(pkg, scope...) {
				t.Errorf("%s: %s defines a sink outside frameborrow's scope", fset.Position(fd.Pos()), pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// definesSink reports whether fd is a sink's frame or element method.
func definesSink(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "ProcessBatch" && fd.Name.Name != "Process" {
		return false
	}
	for _, p := range fd.Type.Params.List {
		if sel, ok := p.Type.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "temporal" && (sel.Sel.Name == "Batch" || sel.Sel.Name == "Element") {
				return true
			}
		}
	}
	return false
}

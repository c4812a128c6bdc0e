package pipes

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the CI workflow's test selections
// honest: a `go test -run` list that names a renamed or deleted test
// matches nothing and passes in silence. For every `go test` in
// .github/workflows/ci.yml with a -run or -fuzz pattern, each
// |-alternative must match a Test, Fuzz or Example function (a Fuzz
// function for -fuzz) in the _test.go files of the packages the command
// names. `-run '^$'`, which selects no test on purpose beside -fuzz, is
// skipped. It only parses files.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	lines := strings.Split(string(raw), "\n")
	for n := 0; n < len(lines); n++ {
		at, line := n+1, lines[n]
		for strings.HasSuffix(line, "\\") && n+1 < len(lines) {
			n++
			line = strings.TrimSuffix(line, "\\") + " " + lines[n]
		}
		dir := "."
		line = strings.TrimPrefix(strings.TrimSpace(line), "run:")
		for _, cmd := range shellCommands(line) {
			if len(cmd) >= 2 && cmd[0] == "cd" {
				dir = filepath.Join(dir, cmd[1])
				continue
			}
			if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
				continue
			}
			run, fuzz, pkgs := testFlags(cmd[2:])
			if run == "" && fuzz == "" {
				continue
			}
			tests := map[string]bool{}
			for _, pkg := range pkgs {
				if err := collectTests(filepath.Join(dir, pkg), tests); err != nil {
					t.Fatalf("ci.yml:%d: %v", at, err)
				}
			}
			for _, p := range []struct{ flag, re, kinds string }{{"-run", run, "Test Fuzz Example"}, {"-fuzz", fuzz, "Fuzz"}} {
				if p.re == "" || p.re == "^$" {
					continue
				}
				for _, alt := range alternatives(p.re) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Fatalf("ci.yml:%d: %s %q: %v", at, p.flag, alt, err)
					}
					if !matchesAny(re, tests, strings.Fields(p.kinds)) {
						t.Errorf("ci.yml:%d: %s alternative %q matches no %s function in %v", at, p.flag, alt, p.kinds, pkgs)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run or -fuzz pattern in ci.yml: the parser is out of step with the workflow")
	}
	t.Logf("%d patterns checked", checked)
}

// shellCommands splits one shell line into its commands (at unquoted
// &&, ||, |, ; and a redirection, which ends the command), each a list
// of words with their quotes removed.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord, skip := false, false
	endWord := func() {
		if inWord && !skip {
			cmd = append(cmd, word.String())
		}
		word.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(cmd) > 0 {
			cmds = append(cmds, cmd)
		}
		cmd, skip = nil, false
	}
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == '#' && !inWord:
			endCmd()
			return cmds
		case c == '&' || c == '|' || c == ';':
			endCmd()
		case c == '>' || c == '<':
			endWord()
			skip = true // the rest is redirection targets
		case c == ' ' || c == '\t':
			endWord()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// testFlags returns a go test command's -run and -fuzz patterns and the
// package patterns it names.
func testFlags(args []string) (run, fuzz string, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		for _, flag := range []struct {
			name string
			dst  *string
		}{{"-run", &run}, {"-fuzz", &fuzz}} {
			switch {
			case a == flag.name && i+1 < len(args):
				i++
				*flag.dst = args[i]
			case strings.HasPrefix(a, flag.name+"="):
				*flag.dst = strings.TrimPrefix(a, flag.name+"=")
			}
		}
		if strings.HasPrefix(a, ".") {
			pkgs = append(pkgs, a)
		}
	}
	return run, fuzz, pkgs
}

// alternatives splits a pattern at its top-level |, and keeps of each
// alternative what go test matches against top-level names: the part
// before a top-level /.
func alternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	cut := func(end int) {
		alt := re[start:end]
		if i := topLevel(alt, '/'); i >= 0 {
			alt = alt[:i]
		}
		alts = append(alts, alt)
	}
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				cut(i)
				start = i + 1
			}
		}
	}
	cut(len(re))
	return alts
}

// topLevel returns the index of the first c in s outside brackets and
// groups, -1 if none.
func topLevel(s string, c byte) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case c:
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// collectTests adds the top-level function names declared in the
// _test.go files of the package pattern pkg ("./x" or "./x/...", which
// stops at nested modules and testdata) to tests.
func collectTests(pkg string, tests map[string]bool) error {
	root, recursive := strings.CutSuffix(filepath.ToSlash(pkg), "/...")
	return filepath.WalkDir(filepath.FromSlash(root), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.FromSlash(root) {
				return nil
			}
			if !recursive {
				return fs.SkipDir
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				tests[fd.Name.Name] = true
			}
		}
		return nil
	})
}

// matchesAny reports whether re matches a name in tests with one of the
// prefixes.
func matchesAny(re *regexp.Regexp, tests map[string]bool, prefixes []string) bool {
	for name := range tests {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

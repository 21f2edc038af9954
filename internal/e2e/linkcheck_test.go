package e2e

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// unlinkedAllowList names the files and directories (relative to the module
// root, a directory ending in "/") whose functions may link into no binary:
// test support that the product packages' tests share.
const unlinkedAllowList = "testdata/unlinked.allow"

// A product package's non-test files hold only code a command runs. Every
// command is built at the default tags and under purego, and the bench
// module once, with inlining off so that nothing a binary calls vanishes
// into its caller; a func with a body under internal/ that none of them
// links fails the test, unless the allow-list covers its file. The examples
// are not built: they call what the commands call, so a func that only an
// example reaches fails too. Funcs only the bench module links are logged
// as bench-only: they stay while bench/ calls them. An allow-list entry that
// covers no unlinked func fails the test as well, so the list cannot
// outlive the test support it names.
func TestEveryProductFuncLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary twice")
	}
	root, err := filepath.Abs(filepath.Join("..", "..")) // a test runs in its package's directory
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowList(t, unlinkedAllowList)

	product := map[string]bool{}
	for _, tags := range []string{"", "purego"} {
		dir := t.TempDir()
		goBuild(t, root, "-tags", tags, "-o", dir+string(filepath.Separator), "./cmd/...")
		bins, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(bins) == 0 {
			t.Fatalf("no binaries built under %s (%v)", dir, err)
		}
		for _, bin := range bins {
			linkedSymbols(t, bin, product)
		}
	}
	benchBin := filepath.Join(t.TempDir(), "bench")
	goBuild(t, filepath.Join(root, "bench"), "-o", benchBin, ".")
	benchOnly := map[string]bool{}
	linkedSymbols(t, benchBin, benchOnly)

	var unlinked []string
	live := map[string]bool{} // allow-list entries that cover an unlinked func
	for _, fn := range productFuncs(t, root) {
		switch {
		case product[fn.sym]:
		case benchOnly[fn.sym]:
			t.Logf("bench-only: %s", fn)
		default:
			if a, ok := allowedBy(allow, fn.file); ok {
				live[a] = true
			} else {
				unlinked = append(unlinked, fn.String())
			}
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d funcs link into no command or bench binary; delete them, or move a test oracle into a _test.go file or a test-support package named in %s:\n%s",
			len(unlinked), unlinkedAllowList, strings.Join(unlinked, "\n"))
	}
	for _, a := range allow {
		if !live[a] {
			t.Errorf("%s: entry %q covers no unlinked func; remove it", unlinkedAllowList, a)
		}
	}
}

// productFunc is one func with a body in a non-test file under internal/.
type productFunc struct {
	sym   string // its linker symbol, type parameters dropped
	file  string // relative to the module root
	line  int
	lines int // from its doc comment to its closing brace
}

func (f productFunc) String() string {
	return fmt.Sprintf("%s:%d: %s (%d lines)", f.file, f.line, f.sym, f.lines)
}

// productFuncs lists every func with a body in the non-test files under
// internal/ that build for the binaries' platform at the default tags or
// under purego.
func productFuncs(t *testing.T, root string) []productFunc {
	t.Helper()
	ctxs := []build.Context{build.Default, build.Default}
	ctxs[1].BuildTags = []string{"purego"}
	var funcs []productFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, name := filepath.Split(path)
		builds := false
		for i := range ctxs {
			ok, err := ctxs[i].MatchFile(dir, name)
			if err != nil {
				return err
			}
			builds = builds || ok
		}
		if !builds {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := fd.Pos()
			if fd.Doc != nil {
				start = fd.Doc.Pos()
			}
			funcs = append(funcs, productFunc{
				sym:   funcSymbol(pkg, fd),
				file:  filepath.ToSlash(rel),
				line:  fset.Position(fd.Pos()).Line,
				lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// funcSymbol is the name go tool nm gives fd: pkg.F, pkg.T.M or pkg.(*T).M;
// an init func is matched as pkg.init, whatever its number.
func funcSymbol(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// linkedSymbols adds to syms the text symbols of bin, with the type
// arguments of generic instantiations dropped (pkg.F[go.shape.int] is
// pkg.F) and numbered inits folded into pkg.init.
func linkedSymbols(t *testing.T, bin string, syms map[string]bool) {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		sym := dropTypeArgs(strings.Join(fields[2:], " "))
		if i := strings.Index(sym, ".init."); i >= 0 {
			sym = sym[:i+len(".init")]
		}
		syms[sym] = true
	}
}

// dropTypeArgs removes every bracketed type-argument list from sym.
func dropTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func goBuild(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=repro/...=-l"}, args...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v in %s: %v\n%s", args, dir, err, out)
	}
}

// readAllowList returns the entries of an allow-list file: one path a line,
// "#" starts a comment.
func readAllowList(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		if line, _, _ = strings.Cut(line, "#"); strings.TrimSpace(line) != "" {
			entries = append(entries, strings.TrimSpace(line))
		}
	}
	return entries
}

// allowedBy returns the allow-list entry that covers file, if any.
func allowedBy(allow []string, file string) (string, bool) {
	for _, a := range allow {
		if file == a || (strings.HasSuffix(a, "/") && strings.HasPrefix(file, a)) {
			return a, true
		}
	}
	return "", false
}

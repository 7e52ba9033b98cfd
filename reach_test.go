package repro_test

import (
	"bufio"
	"bytes"
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unreachedKeepers are the internal functions that no program runs but a
// test compares against, each with that test.
var unreachedKeepers = map[string]string{
	"repro/internal/coll.Collective.Messages":                         "TestByteConservation",
	"repro/internal/coll.Collective.TotalBytes":                       "TestByteConservation",
	"repro/internal/coll.rounds":                                      "TestByteConservation",
	"repro/internal/sweep.(*MultiGroupProblem).SolveSequentialGroups": "TestPipelinedScheduleSolvesSameFluxes",
}

// simulationOwners are the directories whose programs may place a
// wavefront decomposition onto a machine themselves, with
// simnet.NewMachineTopology or simnet.GridPlacement, each with the reason.
// Every other program simulates a benchmark run through
// campaign.Run.Simulate.
var simulationOwners = map[string]string{
	"internal/campaign":       "Run.Simulate, the one path",
	"internal/replay":         "re-executes recorded op streams, not an app's schedule",
	"examples/replay":         "walks through recording and internal/replay",
	"bench":                   "the timed benchmark harness, a module of its own",
	"examples/quickstart":     "teaches the model and the simulator on their own APIs",
	"examples/customapp":      "simulates an app that no campaign preset names",
	"examples/energygroups":   "simulates schedules with reordered sweep corners",
	"examples/flightrecorder": "teaches attaching a recorder to the simulator",
}

// TestOneSimulationPath keeps every program that simulates a benchmark on
// campaign.Run.Simulate, so each gets the campaign's checks and options:
// it parses the module's non-test Go files and fails for each use of
// simnet.NewMachineTopology or simnet.GridPlacement outside
// simulationOwners, and for each owner that uses neither.
func TestOneSimulationPath(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		simnet := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/simnet"` {
				simnet = "simnet"
				if imp.Name != nil {
					simnet = imp.Name.Name
				}
			}
		}
		if simnet == "" {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		owner := ""
		for o := range simulationOwners {
			if dir == o || strings.HasPrefix(dir, o+"/") {
				owner = o
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != simnet ||
				(sel.Sel.Name != "NewMachineTopology" && sel.Sel.Name != "GridPlacement") {
				return true
			}
			if owner != "" {
				used[owner] = true
			} else {
				t.Errorf("%s: simnet.%s places a benchmark by hand; simulate through campaign.Run.Simulate",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for o := range simulationOwners {
		if !used[o] {
			t.Errorf("simulationOwners names %s, which no longer places a decomposition; drop it", o)
		}
	}
}

// nmText matches a text symbol line of `go tool nm`: address, type T or t,
// then the name, which may hold spaces inside generic shape brackets.
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] (.+)$`)

// TestEveryInternalFunctionRuns keeps internal/ to code a program runs.
// It builds every command, every example and the bench module with
// inlining off, lists the repro/internal text symbols of the binaries,
// and fails for each function with a body that none of them contains,
// unless unreachedKeepers names it.
func TestEveryInternalFunctionRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program (about 10 s warm, 26 s cold)")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	list, err := exec.Command(goCmd, "list", "-f", `{{if eq .Name "main"}}{{.Dir}}{{end}}`, "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := append(strings.Fields(string(list)), "bench")
	// One program at a time, each listed before the next overwrites bin:
	// cmd/replay and examples/replay share a base name, so one
	// `go build -o dir/` of all of them would keep only one.
	bin := filepath.Join(t.TempDir(), "prog")
	reached := map[string]bool{}
	for _, dir := range mains {
		build := exec.Command(goCmd, "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = dir
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", dir, err, msg)
		}
		syms, err := exec.Command(goCmd, "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm (%s): %v", dir, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(syms))
		for sc.Scan() {
			m := nmText.FindStringSubmatch(sc.Text())
			if m == nil || !strings.HasPrefix(m[1], "repro/internal/") {
				continue
			}
			reached[stripTypeArgs(m[1])] = true
		}
	}

	declared := map[string]bool{}
	for _, fn := range internalFuncs(t) {
		declared[fn] = true
		if _, keep := unreachedKeepers[fn]; !keep && !isReached(reached, fn) {
			t.Errorf("%s: no command, example or bench runs it; delete it, or list the test that compares against it in unreachedKeepers", fn)
		}
	}
	keepers := make([]string, 0, len(unreachedKeepers))
	for fn := range unreachedKeepers {
		keepers = append(keepers, fn)
	}
	sort.Strings(keepers)
	for _, fn := range keepers {
		switch {
		case !declared[fn]:
			t.Errorf("keeper %s no longer exists; drop it from unreachedKeepers", fn)
		case isReached(reached, fn):
			t.Errorf("keeper %s is reached by a program; drop it from unreachedKeepers", fn)
		}
	}
}

// isReached reports whether a binary holds fn. A value method counts
// under either receiver form, since an interface call reaches it through
// the pointer wrapper.
func isReached(reached map[string]bool, fn string) bool {
	if reached[fn] {
		return true
	}
	pkg, rest, ok := strings.Cut(fn, ".")
	if !ok || strings.HasPrefix(rest, "(*") {
		return false
	}
	typ, method, ok := strings.Cut(rest, ".")
	return ok && reached[pkg+".(*"+typ+")."+method]
}

// stripTypeArgs drops every bracketed type-argument list from a symbol,
// so an instantiation counts for its generic declaration.
func stripTypeArgs(sym string) string {
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

// internalFuncs returns the symbol name of every function with a body in
// the non-test files of internal/ that this platform builds. Package init
// functions are left out: they run whenever their package is linked.
func internalFuncs(t *testing.T) []string {
	t.Helper()
	var fns []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		importPath := "repro/" + filepath.ToSlash(path)
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				fns = append(fns, importPath+"."+funcSymbol(fd))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// funcSymbol renders a declaration the way the linker names it:
// F, T.M or (*T).M, with type parameters dropped.
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}

package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goFile is one parsed non-test Go file; rel is its slash path from the
// module root.
type goFile struct {
	rel string
	f   *ast.File
}

// parseModule parses every non-test Go file of the module rooted at dir.
// Nested modules, testdata and dot directories are not walked.
func parseModule(t *testing.T, fset *token.FileSet, dir string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
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
		rel, _ := filepath.Rel(dir, path)
		files = append(files, goFile{rel: filepath.ToSlash(rel), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// exportAllowlist names the exported identifiers of internal/ that no
// non-test Go references and that stay anyway, each with its reason. Keys
// are the package path under internal/, then the receiver type for a
// method, then the name.
var exportAllowlist = map[string]string{
	"core.AppendMemberTable": "the membership table's wire encoder, which the membership fuzzers drive",
	"core.DecodeMemberTable": "the membership table's wire decoder, which the membership fuzzers drive",

	"leanmd.DirectForces": "the all-pairs reference, with no cell decomposition, that the decomposed-force tests compare against",

	"unstruct.RunSequential": "the sequential reference implementation that the unstruct tests compare against",

	"vmi.TCP.DropConn":           "chaos instrument: severs a live connection to exercise re-dial and retransmit",
	"vmi.TCP.CorruptWire":        "chaos instrument: corrupts the outgoing byte stream to break the framing",
	"vmi.NewPartitionDevice":     "chaos instrument: the network-partition device",
	"vmi.PartitionDevice.Sever":  "chaos instrument: opens a partition",
	"vmi.PartitionDevice.Heal":   "chaos instrument: closes a partition",
	"vmi.FaultDevice.RecordLog":  "chaos instrument: turns on the fault device's decision log",
	"vmi.FaultDevice.Log":        "chaos instrument: reads the fault device's decision log",
	"vmi.FaultDevice.HeldFrames": "chaos instrument: reports frames the fault device holds back for reordering",
	"vmi.Reliable.Outstanding":   "chaos instrument: unacknowledged frames, read by the reliability tests",
}

// stdInterfaces are the standard-library interfaces whose methods only
// the standard library calls (container/heap, errors, fmt). A
// method that completes one of them on its receiver type has a caller no
// name search can see.
var stdInterfaces = [][]string{
	{"Len", "Less", "Swap", "Push", "Pop"}, // heap.Interface
	{"Error"},                              // error
	{"Unwrap"},                             // errors.Is and errors.As
	{"String"},                             // fmt.Stringer
}

// TestInternalExportsHaveProductCallers: internal/ is a closed world.
// Every exported func, method, type, var and const declared there is
// referenced from non-test Go of the main module or of the benchmark
// module, which imports internal/ through its replace directive, or is on
// exportAllowlist. A package-level declaration internal/pkg.Name is
// referenced only by a pkg.Name selector on an import of that package or
// by a bare Name inside that package, so a same-named identifier in
// another package does not count. Methods stay matched by name: any
// identifier spelled like the method, other than a declaration, counts,
// since telling which type a selector's receiver has needs type checking.
// Two kinds are exempt by rule: a method that completes a stdInterfaces
// entry on its receiver, and the first constant of an iota block, which
// names the zero value.
func TestInternalExportsHaveProductCallers(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := parseModule(t, fset, root)
	for _, f := range parseModule(t, fset, filepath.Join(root, "benchmark")) {
		files = append(files, goFile{rel: "benchmark/" + f.rel, f: f.f})
	}
	qualified, names := references(files)
	if !qualified["core.StartCluster"] {
		t.Fatal("no reference to core.StartCluster found: the walk missed the launcher's callers")
	}
	exports := internalExports(files)
	if len(exports) == 0 {
		t.Fatal("no exported declaration found under internal/")
	}
	for key, ex := range exports {
		used := qualified[key]
		if ex.method {
			used = names[key[strings.LastIndex(key, ".")+1:]]
		}
		_, allowed := exportAllowlist[key]
		switch {
		case !used && !allowed:
			t.Errorf("%s: %s has no reference from non-test Go: delete it, or allowlist it with a reason", fset.Position(ex.pos), key)
		case used && allowed:
			t.Errorf("%s: allowlisted %s now has a product caller: drop its allowlist entry", fset.Position(ex.pos), key)
		}
	}
	for key := range exportAllowlist {
		if _, ok := exports[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration under internal/", key)
		}
	}
}

// TestInternalPackagesHaveProductImporters: every package under internal/
// is imported by non-test Go of the main module outside examples/. A
// package that only an example (or only the benchmark module) reaches is
// a feature no binary or experiment runs: wire it into one, or delete it.
func TestInternalPackagesHaveProductImporters(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files := parseModule(t, token.NewFileSet(), root)
	imported := make(map[string]bool)
	pkgs := make(map[string]bool)
	for _, gf := range files {
		dir := filepath.Dir(gf.rel)
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		if strings.HasPrefix(gf.rel, "examples/") {
			continue
		}
		for _, imp := range gf.f.Imports {
			if path, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "gridmdo/"); ok {
				imported[path] = true
			}
		}
	}
	if !pkgs["internal/core"] || !imported["internal/core"] {
		t.Fatal("internal/core not seen as an imported package: the walk missed the module")
	}
	for pkg := range pkgs {
		if !imported[pkg] {
			t.Errorf("%s is imported by no non-test Go outside examples/: wire it into a binary or experiment, or delete it", pkg)
		}
	}
}

// references collects what files reference. qualified holds "pkg.Name"
// for every pkg.Name selector on an import of gridmdo/internal/pkg and for
// every bare Name (not a declaration, not a selector's field) in a file of
// internal/pkg; names holds every identifier that is not itself being
// declared.
func references(files []goFile) (qualified, names map[string]bool) {
	qualified, names = make(map[string]bool), make(map[string]bool)
	for _, gf := range files {
		self, inInternal := strings.CutPrefix(filepath.Dir(gf.rel), "internal/")
		imports := make(map[string]string) // local name -> package under internal/
		for _, imp := range gf.f.Imports {
			pkg, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "gridmdo/internal/")
			if !ok {
				continue
			}
			local := pkg[strings.LastIndex(pkg, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = pkg
		}
		skip := make(map[*ast.Ident]bool) // declarations and selectors' fields
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				skip[x.Name] = true
			case *ast.TypeSpec:
				skip[x.Name] = true
			case *ast.ValueSpec:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				names[x.Sel.Name] = true
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					qualified[imports[id.Name]+"."+x.Sel.Name] = true
				}
			}
			return true
		})
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				names[id.Name] = true
				if inInternal {
					qualified[self+"."+id.Name] = true
				}
			}
			return true
		})
	}
	return qualified, names
}

// export is one exported declaration under internal/.
type export struct {
	pos    token.Pos
	method bool
}

// internalExports maps each exported declaration under internal/, keyed
// as exportAllowlist is, leaving out the rule-exempt ones.
func internalExports(files []goFile) map[string]export {
	out := make(map[string]export)
	methods := make(map[string][]string) // "pkg.Type" -> its method names
	type method struct {
		recv, name string
		pos        token.Pos
	}
	var pending []method
	for _, gf := range files {
		pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(gf.rel)), "internal/")
		if !ok {
			continue
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.IsExported() {
						out[pkg+"."+d.Name.Name] = export{pos: d.Pos()}
					}
					continue
				}
				recv := pkg + "." + recvType(d.Recv.List[0].Type)
				methods[recv] = append(methods[recv], d.Name.Name)
				if d.Name.IsExported() {
					pending = append(pending, method{recv, d.Name.Name, d.Pos()})
				}
			case *ast.GenDecl:
				for i, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out[pkg+"."+s.Name.Name] = export{pos: s.Pos()}
						}
					case *ast.ValueSpec:
						for j, id := range s.Names {
							if id.IsExported() && !(i == 0 && j == 0 && d.Tok == token.CONST && usesIota(s)) {
								out[pkg+"."+id.Name] = export{pos: id.Pos()}
							}
						}
					}
				}
			}
		}
	}
	for _, m := range pending {
		if !completesStdInterface(methods[m.recv], m.name) {
			out[m.recv+"."+m.name] = export{pos: m.pos, method: true}
		}
	}
	return out
}

// recvType names a method's receiver type: T for T and *T.
func recvType(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// usesIota reports whether a constant spec's values mention iota.
func usesIota(s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

// completesStdInterface reports whether name belongs to a stdInterfaces
// entry whose every method the receiver declares.
func completesStdInterface(have []string, name string) bool {
	for _, iface := range stdInterfaces {
		if !slices.Contains(iface, name) {
			continue
		}
		complete := true
		for _, m := range iface {
			complete = complete && slices.Contains(have, m)
		}
		if complete {
			return true
		}
	}
	return false
}

// TestBenchmarkModuleBuilds: go build ./... does not reach the nested
// benchmark module, so an identifier it uses could vanish from internal/
// unnoticed until CI built it. It builds offline through its replace
// directive.
func TestBenchmarkModuleBuilds(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir() + string(filepath.Separator)
	cmd := exec.Command("go", "build", "-C", filepath.Join(root, "benchmark"), "-o", out, "./...")
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build -C benchmark ./...: %v\n%s", err, b)
	}
}

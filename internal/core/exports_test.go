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
		imports := internalImports(gf.f)
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

// internalImports maps the local name of each of f's imports of a package
// under internal/ to that package's path under internal/.
func internalImports(f *ast.File) map[string]string {
	imports := make(map[string]string)
	for _, imp := range f.Imports {
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
	return imports
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

// configSuffixes name the struct types whose exported fields are settings:
// a field of one of them is either written by a product caller or it is a
// constant in disguise.
var configSuffixes = []string{"Config", "Options", "Params", "Spec"}

// profileVaries is the reason of an experiment-size field: the two bench
// profiles set it to different values, which bench's
// TestProfileFieldsVary checks.
const profileVaries = "experiment profile: bench.PaperProfile and bench.FastProfile differ"

// configFieldAllowlist names the exported setting fields that no non-test
// Go outside their own package writes and that stay anyway, each with its
// reason. Keys are the package path under internal/, the type and the
// field; a key without a field covers every field of a type that its own
// package fills whole from a grammar.
var configFieldAllowlist = map[string]string{
	"bench.FarmConfig.Tasks":                  profileVaries,
	"bench.FarmConfig.AssignCost":             profileVaries,
	"bench.FarmConfig.Batch":                  profileVaries,
	"bench.FarmConfig.Workers":                profileVaries,
	"bench.FarmConfig.WorkersPerShard":        profileVaries,
	"bench.FarmConfig.Latency":                profileVaries,
	"bench.GateConfig.Procs":                  profileVaries,
	"bench.GateConfig.BaselineJobs":           profileVaries,
	"bench.GateConfig.BaselineClients":        profileVaries,
	"bench.GateConfig.SoakJobs":               profileVaries,
	"bench.GateConfig.SoakClients":            profileVaries,
	"bench.GateConfig.PacedJobs":              profileVaries,
	"bench.GateConfig.FloodQueue":             profileVaries,
	"bench.GateConfig.SoakP99Bound":           profileVaries,
	"bench.MembershipConfig.Nodes":            profileVaries,
	"bench.MembershipConfig.Tasks":            profileVaries,
	"bench.MembershipConfig.Workers":          profileVaries,
	"bench.MembershipConfig.Spin":             profileVaries,
	"bench.MembershipConfig.EventAfterGrants": profileVaries,
	"bench.MembershipConfig.Seeds":            profileVaries,
	"bench.GateConfig.PacedEvery":             "test seam: TestGateSoakSmoke paces at 2 ms; both profiles pace at 5 ms",
	"bench.GateConfig.FloodClients":           "test seam: TestGateSoakSmoke floods with 8 clients; both profiles flood with 16",

	"topology.Spec":      "parsed: topology.ParseSpec fills every field from the topology grammar",
	"topology.GroupSpec": "parsed: topology.ParseSpec fills every field from the topology grammar",
	"topology.MeshSpec":  "parsed: topology.ParseSpec fills every field from the topology grammar",

	"core.Options.Trace":      "set by core.WithTrace",
	"core.Options.Metrics":    "set by core.WithMetrics",
	"core.Options.Sinks":      "set by core.WithSink",
	"core.Options.Transport":  "set by core.WithCluster",
	"core.Options.NodeOf":     "set by core.WithCluster",
	"core.Options.Node":       "set by core.WithCluster",
	"core.Options.PELo":       "set by core.WithCluster",
	"core.Options.PEHi":       "set by core.WithCluster",
	"core.Options.Membership": "set by core.WithMembership",
	"core.Options.Lifecycle":  "set by core.WithLifecycle",

	"core.MembershipConfig.Node":        "assembled per node by core.StartCluster",
	"core.MembershipConfig.Coordinator": "assembled per node by core.StartCluster",
	"core.MembershipConfig.Stack":       "assembled per node by core.StartCluster",
	"core.MembershipConfig.NodeOf":      "assembled per node by core.StartCluster",
	"core.MembershipConfig.NumPE":       "assembled per node by core.StartCluster",
	"core.MembershipConfig.Initial":     "assembled per node by core.StartCluster",

	"leanmd.Params.Dt":       "physics default: leanmd.DefaultParams",
	"leanmd.Params.CellSize": "physics default: leanmd.DefaultParams",
	"leanmd.Params.Epsilon":  "physics default: leanmd.DefaultParams",
	"leanmd.Params.Sigma":    "physics default: leanmd.DefaultParams",
	"leanmd.Params.Charge":   "physics default: leanmd.DefaultParams",
	"leanmd.Params.VelScale": "physics default: leanmd.DefaultParams",

	"leanmd.Params.Collect":   "test seam: TestAppMatchesSequentialIntegration",
	"stencil.Params.Collect":  "test seam: TestSimMatchesSequentialBitwise",
	"unstruct.Params.Collect": "test seam: TestMatchesSequentialBitwise",

	"taskfarm.Params.OnTaskDone": "installed by taskfarm.NewService as a serve farm's completion hook",
}

// TestConfigFieldsHaveProductSetters: a setting no run varies is a
// constant. Every exported field of a struct under internal/ named
// *Config, *Options, *Params or *Spec is written by non-test Go outside
// its own package (the benchmark module counts), or is on
// configFieldAllowlist. A write is a key in a composite literal of the
// type, element types a literal elides included, or an assignment, an
// increment or an address-of (a flag binding) on a selector whose operand
// holds the type. Operands are matched by name, without type checking: a
// variable, parameter or result declared with the type or a pointer to
// it, or initialised from a literal of it or from a call of an internal/
// function whose first result is one, in the same top-level declaration
// or at package level; else a struct field of that name and type anywhere
// in the module.
func TestConfigFieldsHaveProductSetters(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := parseModule(t, fset, root)
	for _, f := range parseModule(t, fset, filepath.Join(root, "benchmark")) {
		files = append(files, goFile{rel: "benchmark/" + f.rel, f: f.f})
	}
	fields := configFields(files)
	if _, ok := fields["core.ClusterSpec.Topo"]; !ok {
		t.Fatal("core.ClusterSpec.Topo not found: the walk missed the setting structs")
	}
	written := configWrites(files)
	if !written["core.ClusterSpec.Topo"] {
		t.Fatal("no write of core.ClusterSpec.Topo found: the walk missed the launcher's callers")
	}
	for key, pos := range fields {
		_, listed := configFieldAllowlist[key]
		_, typeListed := configFieldAllowlist[key[:strings.LastIndex(key, ".")]]
		switch {
		case !written[key] && !listed && !typeListed:
			t.Errorf("%s: no non-test Go outside its package sets %s: make it a constant, or allowlist it with a reason", fset.Position(pos), key)
		case written[key] && listed:
			t.Errorf("%s: allowlisted %s now has a product setter: drop its allowlist entry", fset.Position(pos), key)
		}
	}
	types := make(map[string]bool)
	for key := range fields {
		types[key[:strings.LastIndex(key, ".")]] = true
	}
	for key, reason := range configFieldAllowlist {
		if _, ok := fields[key]; !ok && !types[key] {
			t.Errorf("allowlist entry %s names no setting field or type under internal/", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}

// TestReachAllowlistNamesExistingCode: every entry of
// .github/reach-allow.txt names a file that exists and, for a
// path:Function entry, a function or method of that name declared in it,
// so deleted code cannot leave its allowlist entry behind.
func TestReachAllowlistNamesExistingCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, ".github", "reach-allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	entries := 0
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		entries++
		path, fn, hasFn := strings.Cut(fields[0], ":")
		full := filepath.Join(root, filepath.FromSlash(path))
		if _, err := os.Stat(full); err != nil {
			t.Errorf("reach-allow.txt:%d: %s names no file: %v", i+1, fields[0], err)
			continue
		}
		if !hasFn {
			continue
		}
		f, err := parser.ParseFile(fset, full, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("reach-allow.txt:%d: %v", i+1, err)
			continue
		}
		if !slices.ContainsFunc(f.Decls, func(d ast.Decl) bool {
			fd, ok := d.(*ast.FuncDecl)
			return ok && fd.Name.Name == fn
		}) {
			t.Errorf("reach-allow.txt:%d: %s declares no function or method %s", i+1, path, fn)
		}
	}
	if entries == 0 {
		t.Fatal("reach-allow.txt has no entries: the parse is wrong")
	}
}

// configFields maps "pkg.Type.Field" to its position for every exported
// field of a setting struct under internal/.
func configFields(files []goFile) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for _, gf := range files {
		pkg, ok := strings.CutPrefix(filepath.Dir(gf.rel), "internal/")
		if !ok {
			continue
		}
		for _, d := range gf.f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, s := range g.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !hasConfigSuffix(ts.Name.Name) {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							out[pkg+"."+ts.Name.Name+"."+id.Name] = id.Pos()
						}
					}
				}
			}
		}
	}
	return out
}

func hasConfigSuffix(name string) bool {
	for _, s := range configSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// configWrites returns "pkg.Type.Field" for every field of an internal/
// struct that non-test Go outside internal/pkg writes, by the rules of
// TestConfigFieldsHaveProductSetters.
func configWrites(files []goFile) map[string]bool {
	out := make(map[string]bool)
	results, fields := funcResults(files), structFieldTypes(files)
	for _, gf := range files {
		self, _ := strings.CutPrefix(filepath.Dir(gf.rel), "internal/")
		imports := internalImports(gf.f)
		for local, pkg := range imports {
			if pkg == self {
				delete(imports, local)
			}
		}
		if len(imports) == 0 {
			continue
		}
		w := &writeScan{out: out, imports: imports, results: results, fields: make(map[string]string)}
		for name, typ := range fields {
			if !strings.HasPrefix(typ, self+".") {
				w.fields[name] = typ
			}
		}
		// Package-level declarations are in scope everywhere; locals only
		// in their own declaration.
		global := make(map[string]string)
		w.vars = global
		for _, d := range gf.f.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				w.declare(g)
			}
		}
		for _, d := range gf.f.Decls {
			w.vars = make(map[string]string, len(global))
			for k, v := range global {
				w.vars[k] = v
			}
			w.declare(d)
			w.lits(d, "")
		}
	}
	return out
}

// writeScan finds setting-field writes in one file.
type writeScan struct {
	out     map[string]bool
	imports map[string]string // local name -> package under internal/ (not the file's own)
	results map[string]string // "pkg.Func" -> the struct its first result denotes
	fields  map[string]string // struct field name -> the struct it holds, module-wide
	vars    map[string]string // operand name -> the struct it holds
}

// holds names the struct an operand named name holds: a declaration in
// scope, else a struct field of that name anywhere in the module.
func (w *writeScan) holds(name string) string {
	if typ := w.vars[name]; typ != "" {
		return typ
	}
	return w.fields[name]
}

// typeOf names the struct a type expression of another internal package
// denotes, or "".
func (w *writeScan) typeOf(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && w.imports[id.Name] != "" {
			return w.imports[id.Name] + "." + sel.Sel.Name
		}
	}
	return ""
}

// elemOf names the struct the elements of a slice, array or map type
// denote, or "".
func (w *writeScan) elemOf(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ArrayType:
		return w.typeOf(x.Elt)
	case *ast.MapType:
		return w.typeOf(x.Value)
	}
	return ""
}

// valueOf names the struct a value expression yields: a literal of it, the
// address of one, a call of a function whose first result is one, or an
// operand that holds one.
func (w *writeScan) valueOf(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.CompositeLit:
		if x.Type != nil {
			return w.typeOf(x.Type)
		}
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && w.imports[id.Name] != "" {
				return w.results[w.imports[id.Name]+"."+sel.Sel.Name]
			}
		}
	case *ast.SelectorExpr:
		return w.fields[x.Sel.Name]
	case *ast.Ident:
		return w.vars[x.Name]
	}
	return ""
}

// declare records the operands n declares with a setting struct's type.
func (w *writeScan) declare(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			if typ := w.typeOf(x.Type); typ != "" {
				for _, id := range x.Names {
					w.vars[id.Name] = typ
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if typ := w.typeOf(x.Type); typ != "" {
					w.vars[id.Name] = typ
				} else if i < len(x.Values) && len(x.Values) == len(x.Names) {
					if typ := w.valueOf(x.Values[i]); typ != "" {
						w.vars[id.Name] = typ
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				break
			}
			for i, l := range x.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || (i > 0 && len(x.Rhs) == 1) {
					continue
				}
				r := x.Rhs[0]
				if len(x.Rhs) == len(x.Lhs) {
					r = x.Rhs[i]
				}
				if typ := w.valueOf(r); typ != "" {
					w.vars[id.Name] = typ
				}
			}
		}
		return true
	})
}

// writeSel records a write of the selector e, named for its operand's
// last identifier.
func (w *writeScan) writeSel(e ast.Expr) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var name string
	switch x := sel.X.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	if typ := w.holds(name); typ != "" {
		w.out[typ+"."+sel.Sel.Name] = true
	}
}

// lits records the writes in n. elided is the struct a composite literal
// without a type denotes: the element type of the enclosing literal.
func (w *writeScan) lits(n ast.Node, elided string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, l := range x.Lhs {
					w.writeSel(l)
				}
			}
		case *ast.IncDecStmt:
			w.writeSel(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				w.writeSel(x.X)
			}
		case *ast.CompositeLit:
			typ, elem := elided, ""
			if x.Type != nil {
				typ, elem = w.typeOf(x.Type), w.elemOf(x.Type)
			}
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && typ != "" && elem == "" {
						w.out[typ+"."+id.Name] = true
					}
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
					el = u.X
				}
				w.lits(el, elem)
			}
			return false
		}
		return true
	})
}

// funcResults maps "pkg.Func" to the struct the first result of each
// function under internal/ denotes, when it is a struct of the same
// package (T or *T).
func funcResults(files []goFile) map[string]string {
	out := make(map[string]string)
	for _, gf := range files {
		pkg, ok := strings.CutPrefix(filepath.Dir(gf.rel), "internal/")
		if !ok {
			continue
		}
		for _, d := range gf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Type.Results == nil {
				continue
			}
			e := fd.Type.Results.List[0].Type
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			if id, ok := e.(*ast.Ident); ok && id.IsExported() {
				out[pkg+"."+fd.Name.Name] = pkg + "." + id.Name
			}
		}
	}
	return out
}

// structFieldTypes maps the name of every struct field in the module
// whose type is a struct under internal/ (T or *T, qualified or in the
// field's own package) to that struct.
func structFieldTypes(files []goFile) map[string]string {
	out := make(map[string]string)
	for _, gf := range files {
		self, inInternal := strings.CutPrefix(filepath.Dir(gf.rel), "internal/")
		imports := internalImports(gf.f)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				e := f.Type
				if s, ok := e.(*ast.StarExpr); ok {
					e = s.X
				}
				typ := ""
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						typ = imports[id.Name] + "." + x.Sel.Name
					}
				case *ast.Ident:
					if inInternal && x.IsExported() {
						typ = self + "." + x.Name
					}
				}
				for _, id := range f.Names {
					if typ != "" {
						out[id.Name] = typ
					}
				}
			}
			return true
		})
	}
	return out
}

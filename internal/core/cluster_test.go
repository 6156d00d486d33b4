package core_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
)

// launcherGoroutines returns the IDs of the live goroutines running
// transport or membership code: what StartCluster starts and Close stops.
func launcherGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "gridmdo/internal/vmi.") || strings.Contains(g, "gridmdo/internal/core.(*Membership)") {
			id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
			ids[id] = true
		}
	}
	return ids
}

// TestStartClusterFailureLeavesNothingRunning: when the last node of a
// three-node cluster cannot be started, StartCluster reports it and closes
// the stacks, managers and runtimes it built for the others, so none of
// their goroutines outlives the call. Goroutines are compared by identity,
// not counted: one of an earlier test still winding down would otherwise
// hide a leak.
func TestStartClusterFailureLeavesNothingRunning(t *testing.T) {
	topo, err := topology.Single(3)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	prog := func(int) (*core.Program, error) {
		return &core.Program{
			Arrays: []core.ArraySpec{{ID: 0, N: 3, New: func(int) core.Chare { return nopChare{} }}},
			Start:  func(*core.Ctx) {},
		}, nil
	}
	cases := []struct {
		name  string
		spec  core.ClusterSpec
		wants string
	}{
		{
			name: "last node cannot listen",
			spec: core.ClusterSpec{
				Addrs:   []string{"127.0.0.1:0", "127.0.0.1:0", busy.Addr().String()},
				Program: prog,
			},
			wants: "listen",
		},
		{
			name: "last node's program fails",
			spec: core.ClusterSpec{
				Program: func(node int) (*core.Program, error) {
					if node == 2 {
						return nil, errors.New("no program for node 2")
					}
					return prog(node)
				},
			},
			wants: "no program for node 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := launcherGoroutines()
			spec := tc.spec
			spec.Topo, spec.Nodes = topo, 3
			spec.Membership = func(int, *core.MembershipConfig) {}
			c, err := core.StartCluster(spec)
			if err == nil {
				c.Close()
				t.Fatal("StartCluster succeeded")
			}
			if !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.wants)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				var left []string
				for id := range launcherGoroutines() {
					if !base[id] {
						left = append(left, id)
					}
				}
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines %v started by the failed StartCluster are still running", left)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// fanInChare: element 0 counts the replies of the other elements and
// exits with the count once it has want of them; every other element
// answers each message with one reply.
type fanInChare struct {
	got, want int
}

func (c *fanInChare) Recv(ctx *core.Ctx, _ core.EntryID, _ any) {
	if ctx.Elem().Index != 0 {
		ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, 0)
		return
	}
	if c.got++; c.got == c.want {
		ctx.ExitWith(c.got)
	}
}

// TestStartClusterJoinsRunningPeer starts node 0 of a three-node cluster
// alone and runs it, so it is already sending to nodes 1 and 2 when
// another StartCluster brings those two up in-process, as a deployment
// whose processes start at different times does. Node 0's frames can
// arrive the moment nodes 1 and 2 listen, and delivering one reads the
// runtime clock, so under -race this fails if the launcher still moves
// the in-process nodes' shared epoch after they listen.
func TestStartClusterJoinsRunningPeer(t *testing.T) {
	const burst = 50
	topo, err := topology.Single(3)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve three ports, holding each open until all are bound so that
	// they differ.
	var addrs []string
	var held []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range held {
		ln.Close()
	}
	start := func(local ...int) *core.Cluster {
		c, err := core.StartCluster(core.ClusterSpec{
			Topo: topo, Nodes: 3, Addrs: addrs, Local: local,
			Program: func(int) (*core.Program, error) {
				return &core.Program{
					Arrays: []core.ArraySpec{{ID: 0, N: 3, New: func(int) core.Chare { return &fanInChare{want: 2 * burst} }}},
					Start: func(ctx *core.Ctx) {
						for i := 0; i < burst; i++ {
							ctx.Send(core.ElemRef{Array: 0, Index: 1}, 0, i)
							ctx.Send(core.ElemRef{Array: 0, Index: 2}, 0, i)
						}
					},
				}, nil
			},
			Options: func(int) []core.Option { return []core.Option{core.WithMetrics(metrics.NewRegistry())} },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	run := func(c *core.Cluster) <-chan error {
		done := make(chan error, 1)
		go func() {
			v, err := c.Run()
			if err == nil && v != nil && v != 2*burst {
				err = fmt.Errorf("result %v, want %d", v, 2*burst)
			}
			done <- err
		}()
		return done
	}
	await := func(done <-chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not finish", what)
		}
	}

	node0 := start(0)
	first := run(node0)
	time.Sleep(20 * time.Millisecond) // node 0's first dial fails
	rest := start(1, 2)
	later := run(rest)
	await(first, "node 0")
	// Node 0 closes while its peers still listen: a retransmission that
	// began dialling them before they came up then connects at its next
	// attempt, rather than failing through the dialler's whole backoff,
	// which Close would wait out.
	node0.Close()
	rest.Nodes[1].Runtime.Stop()
	await(later, "nodes 1 and 2")
}

// TestStartClusterRejectsUnevenLayout: every node hosts the same number of
// PEs, so a PE count the node count does not divide is refused.
func TestStartClusterRejectsUnevenLayout(t *testing.T) {
	topo, err := topology.Single(3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.StartCluster(core.ClusterSpec{
		Topo: topo, Nodes: 2,
		Program: func(int) (*core.Program, error) { return nil, errors.New("unreachable") },
	})
	if err == nil || !strings.Contains(err.Error(), "divide") {
		t.Errorf("3 PEs over 2 nodes: err = %v, want an uneven-layout error", err)
	}
}

// TestClusterWiringStaysInLauncher: a cluster is put together in one
// place. Outside the transport package and the launcher, no non-test
// file of the module builds a stack (vmi.NewChainBuilder) or places a
// runtime in a cluster (core.WithCluster) by hand, and outside the core
// package and the examples none builds a runtime (core.NewRuntime): a
// real-time run starts through core.StartCluster. Nested modules
// (benchmark/) are not walked.
func TestClusterWiringStaysInLauncher(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	allowed := func(rel string) bool {
		return strings.HasPrefix(rel, "internal/vmi/") || rel == "internal/core/cluster.go"
	}
	fset := token.NewFileSet()
	launcherCalls := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
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
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			case *ast.Ident:
				name = fn.Name
			}
			if name == "NewRuntime" {
				if !strings.HasPrefix(rel, "internal/core/") && !strings.HasPrefix(rel, "examples/") {
					t.Errorf("%s: calls NewRuntime; start real-time runs with core.StartCluster", fset.Position(call.Pos()))
				}
				return true
			}
			if name != "NewChainBuilder" && name != "WithCluster" {
				return true
			}
			if allowed(rel) {
				launcherCalls++
			} else {
				t.Errorf("%s: calls %s; build clusters with core.StartCluster", fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if launcherCalls < 2 {
		t.Errorf("found %d calls in the launcher, want its NewChainBuilder and WithCluster: the walk missed it", launcherCalls)
	}
}

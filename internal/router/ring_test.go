package router

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mie/internal/obs"
)

// TestRingDeterministic: the ring is a pure function of its membership — two
// routers built from the same node list agree on every placement, which is
// what lets clients hit any router instance.
func TestRingDeterministic(t *testing.T) {
	nodes := []string{"node-0", "node-1", "node-2"}
	a := NewRing(nodes, 0)
	b := NewRing(nodes, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("repo-%04d", i)
		pa, pb := a.Prefer(key), b.Prefer(key)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("placement of %q diverged: %v vs %v", key, pa, pb)
		}
		if len(pa) != len(nodes) {
			t.Fatalf("Prefer(%q) returned %d nodes, want all %d", key, len(pa), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range pa {
			if seen[n] {
				t.Fatalf("Prefer(%q) repeats node %q", key, n)
			}
			seen[n] = true
		}
	}
}

// TestRingDistribution: virtual nodes keep first-choice load roughly even —
// no node may own a wildly outsized share of keys.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"node-0", "node-1", "node-2", "node-3"}
	r := NewRing(nodes, 0)
	count := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		count[r.Prefer(fmt.Sprintf("repo-%05d", i))[0]]++
	}
	fair := keys / len(nodes)
	for _, n := range nodes {
		if c := count[n]; c < fair/3 || c > fair*3 {
			t.Fatalf("node %q owns %d of %d keys (fair share %d): distribution too skewed: %v", n, c, keys, fair, count)
		}
	}
}

// TestRingMinimalRemap: removing one node only remaps the keys that node
// owned; every other key keeps its first choice — the consistent-hashing
// property that makes membership changes cheap.
func TestRingMinimalRemap(t *testing.T) {
	full := NewRing([]string{"node-0", "node-1", "node-2"}, 0)
	shrunk := NewRing([]string{"node-0", "node-1"}, 0)
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("repo-%04d", i)
		before := full.Prefer(key)[0]
		after := shrunk.Prefer(key)[0]
		if before == "node-2" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %s -> %s although its node survived", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no key was homed on the removed node; distribution test is vacuous")
	}
}

// referencePrefer is Prefer as it was before the ring walked its points at
// build time: hash the key with hash/fnv, find its point, walk the circle.
func referencePrefer(r *Ring, key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	sum := h.Sum32()
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= sum })
	var out []string
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// TestPreferMatchesReference: the orders computed once per point at build
// time are the orders a walk from the key's hash finds, for 10 000 random
// keys on rings of 1 to 5 nodes, and each call returns a slice of its own.
func TestPreferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 5; n++ {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d", i)
		}
		for _, vnodes := range []int{0, 3} {
			r := NewRing(nodes, vnodes)
			for i := 0; i < 10000; i++ {
				key := fmt.Sprintf("repo-%x", rng.Uint64()>>uint(rng.Intn(64)))
				got, want := r.Prefer(key), referencePrefer(r, key)
				if !slices.Equal(got, want) {
					t.Fatalf("%d nodes, vnodes %d: Prefer(%q) = %v, want %v", n, vnodes, key, got, want)
				}
				got[0] = "scribbled"
				if again := r.Prefer(key); !slices.Equal(again, want) {
					t.Fatalf("%d nodes: writing to Prefer's result changed the ring: %v", n, again)
				}
			}
		}
	}
	if got := NewRing(nil, 0).Prefer("k"); got != nil {
		t.Errorf("empty ring: Prefer = %v, want nil", got)
	}
}

// TestReadTargetsDoNotAllocate: a relay's candidate list is looked up, not
// built — for a repository on the ring and for a request that names none.
// The race detector allocates on its own, so the count only holds without it.
func TestReadTargetsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	// Members that refuse connections: the probe at Start fails fast, and
	// nothing here relays.
	var nodes []Node
	for _, name := range []string{"a", "b", "c"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, Node{Name: name, Addr: ln.Addr().String()})
		_ = ln.Close()
	}
	rt, err := Start(Config{Nodes: nodes, HealthInterval: time.Hour, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("repo-%04d", i)
		got := rt.targetsFor(id)
		prefer := rt.Ring().Prefer(id)
		if len(got) != len(prefer) {
			t.Fatalf("%s: %d targets for %d preferred nodes", id, len(got), len(prefer))
		}
		for j, b := range got {
			if b != rt.backends[prefer[j]] {
				t.Fatalf("%s: target %d is %s, want %s", id, j, b.addr, prefer[j])
			}
		}
	}
	if got := rt.targetsFor(""); len(got) != 1 || got[0] != rt.leader {
		t.Errorf("targets without a repository = %v, want the leader alone", got)
	}
	ids := []string{"repo-0001", "repo-0002", ""}
	next := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = rt.targetsFor(ids[next%len(ids)])
		next++
	}); allocs != 0 {
		t.Errorf("%v allocations per target lookup, want 0", allocs)
	}
}

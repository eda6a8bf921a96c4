// Package router is a thin stateless routing tier for a replicated MIE
// cluster: it places repositories on nodes by consistent hashing (virtual
// nodes over an explicit membership list — no gossip, no coordination),
// relays wire frames to the chosen node, and fails reads over to the next
// healthy caught-up replica on the ring when a node is down. Mutations and
// training always go to the leader.
package router

import (
	"fmt"
	"slices"
	"sort"
)

// Ring is a consistent-hash ring over named nodes. Each node owns VNodes
// pseudo-random points on a 32-bit circle; a key is served by the node
// owning the first point at or after the key's hash, and its failover
// preference is the order in which further distinct nodes appear walking
// the circle. Placement depends only on (membership, vnodes), so every
// router instance computes identical preferences without coordination.
//
// A key's preference depends only on the point its walk starts at, so the
// ring walks every point once, when it is built: a lookup is a hash and a
// binary search. That costs vnodes·n² node names of memory for n nodes.
type Ring struct {
	points []ringPoint
	nodes  []string
	prefer [][]string // point index -> preference order of a walk starting there
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring with vnodes points per node (64 if vnodes <= 0).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	r.prefer = make([][]string, len(r.points))
	flat := make([]string, 0, len(r.points)*len(r.nodes)) // one backing array for every order
	seen := make(map[string]bool, len(r.nodes))
	for start := range r.points {
		from := len(flat)
		clear(seen)
		for i := 0; i < len(r.points) && len(flat)-from < len(r.nodes); i++ {
			p := r.points[(start+i)%len(r.points)]
			if !seen[p.node] {
				seen[p.node] = true
				flat = append(flat, p.node)
			}
		}
		r.prefer[start] = flat[from:len(flat):len(flat)]
	}
	return r
}

// Nodes returns the ring's membership.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Prefer returns every node in preference order for key: the owner first,
// then each further distinct node in ring-walk order. Reads fail over along
// this order; since it is stable per key, each repository has a sticky home
// node and a deterministic failover chain. The slice is the caller's.
func (r *Ring) Prefer(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	return slices.Clone(r.prefer[r.point(key)])
}

// point returns the index of the first point at or after key's hash, where
// key's walk starts. The ring must have points.
func (r *Ring) point(key string) int {
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// FNV-1a's 32-bit parameters (hash/fnv's New32a, computed in place so a
// lookup allocates nothing).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a is the 32-bit FNV-1a hash of s.
func fnv1a(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

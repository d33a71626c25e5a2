package topology

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
)

// refNextHops is the reference router: one full breadth-first search from
// dst over the whole fabric, hosts other than dst as leaves, then per node
// every equal-cost next hop that can carry transit (a switch, or dst
// itself), hash-picked by ECMPPick over the (node, dst) IDs. It is the
// routing the fabric's per-anchor candidate tables must reproduce exactly.
func refNextHops(f *Fabric, dst netsim.NodeID) map[netsim.NodeID]netsim.NodeID {
	next := map[netsim.NodeID]netsim.NodeID{dst: dst}
	dist := map[netsim.NodeID]int{dst: 0}
	queue := []netsim.NodeID{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !IsSwitchID(cur) && cur != dst {
			continue
		}
		for _, e := range f.Neighbors(cur) {
			if _, seen := dist[e.Peer]; !seen {
				dist[e.Peer] = dist[cur] + 1
				queue = append(queue, e.Peer)
			}
		}
	}
	var key [8]byte
	for node, d := range dist {
		if node == dst {
			continue
		}
		var candidates []netsim.NodeID
		for _, e := range f.Neighbors(node) {
			if nd, ok := dist[e.Peer]; ok && nd == d-1 && (IsSwitchID(e.Peer) || e.Peer == dst) {
				candidates = append(candidates, e.Peer)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		binary.BigEndian.PutUint32(key[0:4], uint32(node))
		binary.BigEndian.PutUint32(key[4:8], uint32(dst))
		next[node] = candidates[hashing.ECMPPick(key[:], len(candidates))]
	}
	return next
}

// refPath walks the reference next hops from src to dst.
func refPath(next map[netsim.NodeID]netsim.NodeID, src, dst netsim.NodeID) []netsim.NodeID {
	if _, ok := next[src]; !ok {
		return nil
	}
	path := []netsim.NodeID{src}
	for cur := src; cur != dst; {
		cur = next[cur]
		path = append(path, cur)
	}
	return path
}

// irregularPlan is a leaf-spine rack pair with the cases regular fabrics
// lack: a host dual-homed to both leaves, a switch with no links at all,
// and a host with no links.
func irregularPlan() *Plan {
	p := LeafSpine(2, 2, 2, netsim.LinkConfig{})
	p.Name = "irregular"
	dual := HostBase + netsim.NodeID(len(p.Hosts))
	orphanHost := dual + 1
	p.Hosts = append(p.Hosts, dual, orphanHost)
	p.Links = append(p.Links,
		Link{A: dual, B: p.Switches[0]},
		Link{A: p.Switches[1], B: dual})
	p.Switches = append(p.Switches, SwitchBase+netsim.NodeID(len(p.Switches)))
	return p
}

// TestRoutingMatchesReference checks NextHop, Path and NextHopsAvoiding
// with no avoid set against the reference BFS for every ordered pair of
// nodes on each fabric, plus an ID that is in no fabric.
func TestRoutingMatchesReference(t *testing.T) {
	fat4, err := FatTree(4, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fat6, err := FatTree(6, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{
		LeafSpine(17, 2, 64, netsim.LinkConfig{}),
		LeafSpine(5, 3, 7, netsim.LinkConfig{}),
		fat4,
		fat6,
		SingleSwitch(8, netsim.LinkConfig{}),
		irregularPlan(),
	}
	for _, p := range plans {
		t.Run(p.Name, func(t *testing.T) {
			f := realize(t, p)
			nodes := append(append([]netsim.NodeID(nil), p.Switches...), p.Hosts...)
			const stranger = SwitchBase - 1
			dsts := append(append([]netsim.NodeID(nil), nodes...), stranger)
			for _, dst := range dsts {
				want := refNextHops(f, dst)
				if got := f.NextHopsAvoiding(dst, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("NextHopsAvoiding(%d, nil) differs from the reference", dst)
				}
				for _, from := range nodes {
					nh, ok := f.NextHop(from, dst)
					wantNH, wantOK := want[from]
					if nh != wantNH || ok != wantOK {
						t.Fatalf("NextHop(%d, %d) = %d, %v; reference %d, %v",
							from, dst, nh, ok, wantNH, wantOK)
					}
					if got, wantPath := f.Path(from, dst), refPath(want, from, dst); !reflect.DeepEqual(got, wantPath) {
						t.Fatalf("Path(%d, %d) = %v; reference %v", from, dst, got, wantPath)
					}
				}
			}
		})
	}
}

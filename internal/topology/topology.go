// Package topology describes cache-coherent NUMA machines: nodes with
// multi-core CPUs and local memory controllers, connected by an asymmetric
// interconnect of directed links with fixed routes (Section III-A1 of the
// BWAP paper).
//
// A Machine is a static description. The memsys package turns it into a
// contended bandwidth model; this package only answers structural questions:
// which links does a transfer from node s to node d cross, what are the
// nominal capacities, and what is the uncontended latency.
package topology

import (
	"fmt"
	"strings"
	"sync"
)

// NodeID identifies a NUMA node within a Machine. IDs are dense, starting
// at 0.
type NodeID int

// LinkID identifies a directed interconnect link within a Machine.
type LinkID int

// Node is one NUMA node: one or more multi-core CPUs plus local memory
// behind an aggregated single-channel memory controller (the paper's
// simplifying abstraction in Section III-A1).
type Node struct {
	ID NodeID
	// Cores is the number of hardware threads local to the node.
	Cores int
	// ControllerGBs is the aggregate local memory controller bandwidth in
	// GB/s. A single uncontended local stream achieves exactly this rate.
	ControllerGBs float64
	// MemoryBytes is the capacity of the node's local memory.
	MemoryBytes int64
	// LocalLatencyNs is the uncontended local DRAM access latency.
	LocalLatencyNs float64
}

// Link is one directed interconnect link. Flows whose routes share a link
// contend for its capacity.
type Link struct {
	ID   LinkID
	Name string
	// CapacityGBs is the link bandwidth in GB/s for its direction.
	CapacityGBs float64
}

// Machine is an immutable description of a NUMA system.
type Machine struct {
	Name  string
	nodes []Node
	links []Link
	// routes[src][dst] lists the links crossed by data flowing from memory
	// node src to a consumer on node dst. Local pairs have an empty route.
	routes [][][]LinkID
	// latencyNs[src][dst] is the uncontended access latency for a thread on
	// dst reading memory on src.
	latencyNs [][]float64
	// ingestGBs caps the rate at which the cores of one node can consume
	// data (load/store ports, LFBs). It must exceed the local controller
	// bandwidth so pairwise local measurements see the controller.
	ingestGBs float64
	// fp memoizes Fingerprint: the structure above is immutable once the
	// builder returns, and the digest is demanded on every tuning-cache
	// key derivation.
	fpOnce sync.Once
	fp     string
}

// NumNodes returns the number of NUMA nodes.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// NumLinks returns the number of directed interconnect links.
func (m *Machine) NumLinks() int { return len(m.links) }

// Node returns the node with the given id.
func (m *Machine) Node(id NodeID) Node { return m.nodes[id] }

// Link returns the link with the given id.
func (m *Machine) Link(id LinkID) Link { return m.links[id] }

// IngestGBs returns the per-node core ingest cap in GB/s.
func (m *Machine) IngestGBs() float64 { return m.ingestGBs }

// Route returns the directed link path crossed by data flowing from memory
// on src to a consumer on dst. The returned slice must not be modified.
func (m *Machine) Route(src, dst NodeID) []LinkID { return m.routes[src][dst] }

// LatencyNs returns the uncontended access latency, in nanoseconds, for a
// thread on dst reading memory on src.
func (m *Machine) LatencyNs(src, dst NodeID) float64 { return m.latencyNs[src][dst] }

// NominalBW returns the bandwidth, in GB/s, that a single uncontended
// stream on dst achieves reading from src: the minimum of the source
// controller, every link on the route, and the destination ingest cap.
// This is the quantity Figure 1a tabulates.
func (m *Machine) NominalBW(src, dst NodeID) float64 {
	bw := m.nodes[src].ControllerGBs
	for _, l := range m.routes[src][dst] {
		if c := m.links[l].CapacityGBs; c < bw {
			bw = c
		}
	}
	if m.ingestGBs < bw {
		bw = m.ingestGBs
	}
	return bw
}

// NominalMatrix returns the full src×dst nominal bandwidth matrix
// (rows = source/memory node, columns = destination/worker node, matching
// the layout of Figure 1a).
func (m *Machine) NominalMatrix() [][]float64 {
	n := m.NumNodes()
	out := make([][]float64, n)
	for s := 0; s < n; s++ {
		out[s] = make([]float64, n)
		for d := 0; d < n; d++ {
			out[s][d] = m.NominalBW(NodeID(s), NodeID(d))
		}
	}
	return out
}

// BWAmplitude returns the ratio between the highest (local) and lowest
// nominal bandwidth in the machine — the paper quotes 5.8x for Machine A
// and 2.3x for Machine B.
func (m *Machine) BWAmplitude() float64 {
	matrix := m.NominalMatrix()
	lo, hi := matrix[0][0], matrix[0][0]
	for _, row := range matrix {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// Validate checks structural invariants: positive capacities, complete and
// in-range routing, empty local routes, and a sane ingest cap. Builders call
// it; tests call it on every machine constructor.
func (m *Machine) Validate() error {
	if len(m.nodes) == 0 {
		return fmt.Errorf("topology: machine %q has no nodes", m.Name)
	}
	for i, n := range m.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("topology: node %d has id %d; ids must be dense", i, n.ID)
		}
		if n.Cores <= 0 {
			return fmt.Errorf("topology: node %d has %d cores", i, n.Cores)
		}
		if n.ControllerGBs <= 0 {
			return fmt.Errorf("topology: node %d controller bandwidth %.2f", i, n.ControllerGBs)
		}
		if n.MemoryBytes <= 0 {
			return fmt.Errorf("topology: node %d memory %d", i, n.MemoryBytes)
		}
		if n.LocalLatencyNs <= 0 {
			return fmt.Errorf("topology: node %d local latency %.2f", i, n.LocalLatencyNs)
		}
	}
	for i, l := range m.links {
		if l.ID != LinkID(i) {
			return fmt.Errorf("topology: link %d has id %d; ids must be dense", i, l.ID)
		}
		if l.CapacityGBs <= 0 {
			return fmt.Errorf("topology: link %q capacity %.2f", l.Name, l.CapacityGBs)
		}
	}
	n := len(m.nodes)
	if len(m.routes) != n || len(m.latencyNs) != n {
		return fmt.Errorf("topology: routing/latency tables sized %d/%d, want %d", len(m.routes), len(m.latencyNs), n)
	}
	for s := 0; s < n; s++ {
		if len(m.routes[s]) != n || len(m.latencyNs[s]) != n {
			return fmt.Errorf("topology: row %d of routing/latency tables incomplete", s)
		}
		for d := 0; d < n; d++ {
			if s == d && len(m.routes[s][d]) != 0 {
				return fmt.Errorf("topology: local route %d->%d must be empty", s, d)
			}
			if s != d && len(m.routes[s][d]) == 0 {
				return fmt.Errorf("topology: remote route %d->%d missing", s, d)
			}
			for _, l := range m.routes[s][d] {
				if l < 0 || int(l) >= len(m.links) {
					return fmt.Errorf("topology: route %d->%d references unknown link %d", s, d, l)
				}
			}
			if m.latencyNs[s][d] <= 0 {
				return fmt.Errorf("topology: latency %d->%d is %.2f", s, d, m.latencyNs[s][d])
			}
			if s != d && m.latencyNs[s][d] < m.nodes[d].LocalLatencyNs {
				return fmt.Errorf("topology: remote latency %d->%d (%.1f) below local (%.1f)",
					s, d, m.latencyNs[s][d], m.nodes[d].LocalLatencyNs)
			}
		}
	}
	if m.ingestGBs <= 0 {
		return fmt.Errorf("topology: ingest cap %.2f", m.ingestGBs)
	}
	for _, nd := range m.nodes {
		if m.ingestGBs < nd.ControllerGBs {
			return fmt.Errorf("topology: ingest cap %.2f below controller %.2f of node %d; local measurements would not see the controller",
				m.ingestGBs, nd.ControllerGBs, nd.ID)
		}
	}
	return nil
}

// String renders the machine's nominal bandwidth matrix in the style of
// Figure 1a.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d cores/node, %d links\n", m.Name, m.NumNodes(), m.nodes[0].Cores, len(m.links))
	matrix := m.NominalMatrix()
	b.WriteString("      ")
	for d := range matrix {
		fmt.Fprintf(&b, "  N%-4d", d+1)
	}
	b.WriteString("\n")
	for s, row := range matrix {
		fmt.Fprintf(&b, "  N%-4d", s+1)
		for _, v := range row {
			fmt.Fprintf(&b, " %6.1f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

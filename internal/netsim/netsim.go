// Package netsim simulates a star network of client machines around a
// central server, the topology of the paper's EMULab deployment: 64 client
// machines plus one server, 238 ms average latency, links capped at
// 100 Kbps (Table I).
//
// Each directed link serializes messages: a message of size s bytes
// departs only after the link has finished transmitting earlier messages,
// taking s*8/bandwidth seconds on the wire, and arrives latency
// milliseconds after departure. Per-link and per-node byte counters feed
// the Figure 9 bandwidth experiment.
package netsim

import (
	"fmt"

	"seve/internal/sim"
)

// NodeID identifies a simulated machine. The server is conventionally
// node 0 and clients are 1..N.
type NodeID int32

// ServerNode is the conventional NodeID of the central server.
const ServerNode NodeID = 0

// Message is anything deliverable over the simulated network. WireSize
// must report the encoded size in bytes; it drives the bandwidth model and
// the traffic counters.
type Message interface {
	WireSize() int
}

// Handler consumes messages arriving at a node.
type Handler func(from NodeID, msg Message)

// LinkConfig describes one direction of a point-to-point link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency sim.Time
	// BandwidthBps is the link capacity in bits per second. Zero or
	// negative means infinite bandwidth (no serialization delay).
	BandwidthBps float64
}

// DefaultLink reproduces the paper's Table I link. The paper reports
// 238 ms as the average inter-machine latency, interpreted here as the
// one-way propagation delay (RTT 476 ms), with the 100 Kbps bandwidth cap.
var DefaultLink = LinkConfig{Latency: 238, BandwidthBps: 100_000}

// transmitTime returns how long size bytes occupy the wire.
func (c LinkConfig) transmitTime(size int) sim.Time {
	if c.BandwidthBps <= 0 {
		return 0
	}
	return sim.Time(float64(size) * 8 / c.BandwidthBps * 1000)
}

type link struct {
	cfg    LinkConfig
	freeAt sim.Time
	bytes  uint64
	msgs   uint64
}

type node struct {
	handler Handler
	sent    uint64
	recv    uint64
}

// Network is the simulated star network. It is not safe for concurrent
// use; all access happens inside kernel events.
type Network struct {
	k     *sim.Kernel
	nodes map[NodeID]*node
	links map[[2]NodeID]*link
	// defaultCfg is used for links that were not explicitly configured.
	defaultCfg LinkConfig

	totalBytes uint64
	totalMsgs  uint64
	dropped    uint64
}

// New returns a network on kernel k in which every link defaults to cfg.
func New(k *sim.Kernel, cfg LinkConfig) *Network {
	return &Network{
		k:          k,
		nodes:      make(map[NodeID]*node),
		links:      make(map[[2]NodeID]*link),
		defaultCfg: cfg,
	}
}

// AddNode registers a node. Registering the same ID twice panics: it
// would silently replace a live protocol endpoint.
func (n *Network) AddNode(id NodeID, h Handler) {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: node %d registered twice", id))
	}
	n.nodes[id] = &node{handler: h}
}

// RemoveNode deregisters a node: messages already in flight toward it
// are dropped at delivery time (the connection died under them), and
// later Sends drop immediately. The id can be re-registered with AddNode
// — a reconnect — without receiving anything addressed to its previous
// incarnation. Removing an unknown id is a no-op.
func (n *Network) RemoveNode(id NodeID) {
	delete(n.nodes, id)
}

// SetLink overrides the configuration of the directed link from → to.
func (n *Network) SetLink(from, to NodeID, cfg LinkConfig) {
	n.links[[2]NodeID{from, to}] = &link{cfg: cfg}
}

func (n *Network) linkFor(from, to NodeID) *link {
	key := [2]NodeID{from, to}
	l, ok := n.links[key]
	if !ok {
		l = &link{cfg: n.defaultCfg}
		n.links[key] = l
	}
	return l
}

// Send transmits msg from one node to another. Delivery is scheduled on
// the kernel after serialization and propagation delay. Sending to an
// unregistered node counts as a drop (the counterpart of a TCP RST in the
// real deployment) rather than an error, so teardown races in experiments
// are harmless.
func (n *Network) Send(from, to NodeID, msg Message) {
	dst, ok := n.nodes[to]
	if !ok {
		n.dropped++
		return
	}
	size := msg.WireSize()
	l := n.linkFor(from, to)

	depart := n.k.Now()
	if l.freeAt > depart {
		depart = l.freeAt
	}
	depart += l.cfg.transmitTime(size)
	l.freeAt = depart
	arrive := depart + l.cfg.Latency

	l.bytes += uint64(size)
	l.msgs++
	n.totalBytes += uint64(size)
	n.totalMsgs++
	if src, ok := n.nodes[from]; ok {
		src.sent += uint64(size)
	}
	dst.recv += uint64(size)

	n.k.At(arrive, func() {
		// Re-check identity at delivery: if the destination was removed
		// (or removed and re-added — a reconnect) while the message was
		// on the wire, the old incarnation's traffic dies with it.
		if cur, ok := n.nodes[to]; !ok || cur != dst {
			n.dropped++
			return
		}
		dst.handler(from, msg)
	})
}

// Broadcast sends msg from one node to every other registered node.
func (n *Network) Broadcast(from NodeID, msg Message) {
	for id := range n.nodes {
		if id != from {
			n.Send(from, id, msg)
		}
	}
}

// TotalBytes reports all bytes ever put on any link.
func (n *Network) TotalBytes() uint64 { return n.totalBytes }

// TotalMessages reports all messages ever sent.
func (n *Network) TotalMessages() uint64 { return n.totalMsgs }

// Dropped reports messages lost to dead endpoints: sent to an
// unregistered node, or in flight toward a node removed (or replaced)
// before delivery.
func (n *Network) Dropped() uint64 { return n.dropped }

// NodeBytes reports bytes sent and received by a node.
func (n *Network) NodeBytes(id NodeID) (sent, recv uint64) {
	nd, ok := n.nodes[id]
	if !ok {
		return 0, 0
	}
	return nd.sent, nd.recv
}

// LinkBytes reports bytes carried by the directed link from → to.
func (n *Network) LinkBytes(from, to NodeID) uint64 {
	if l, ok := n.links[[2]NodeID{from, to}]; ok {
		return l.bytes
	}
	return 0
}

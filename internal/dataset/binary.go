package dataset

// Binary graph codec: a compact little-endian format that loads an order
// of magnitude faster than the textual edge list, for experiment
// checkpointing and large stand-ins.
//
// Layout:
//
//	magic "RBQ1"
//	u32 numLabels, then per label: u32 byteLen + bytes
//	u32 numNodes, then numNodes × u32 label ids
//	u64 numEdges, then numEdges × (u32 from, u32 to)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rbq/internal/graph"
)

var binaryMagic = [4]byte{'R', 'B', 'Q', '1'}

// binaryLimit is the largest header count ReadBinary accepts.
const binaryLimit = 1 << 31

// maxPrealloc caps every capacity hint taken from a header count. A
// corrupt header can claim up to binaryLimit items in a few bytes, so the
// reader reserves at most this many up front and grows by append as the
// input actually delivers items.
const maxPrealloc = 1 << 16

// WriteBinary emits g in the binary format.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	writeU32 := func(x uint32) error { return binary.Write(bw, binary.LittleEndian, x) }

	if err := writeU32(uint32(g.NumLabels())); err != nil {
		return err
	}
	for l := 0; l < g.NumLabels(); l++ {
		name := g.LabelName(graph.LabelID(l))
		if err := writeU32(uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(g.NumNodes())); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if err := writeU32(uint32(g.LabelOf(graph.NodeID(v)))); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumEdges())); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, t := range g.Out(graph.NodeID(v)) {
			if err := writeU32(uint32(v)); err != nil {
				return err
			}
			if err := writeU32(uint32(t)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q (not an RBQ1 graph file)", magic)
	}
	readU32 := func(what string) (uint32, error) {
		var x uint32
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return 0, fmt.Errorf("dataset: reading %s: %w", what, err)
		}
		return x, nil
	}

	numLabels, err := readU32("label count")
	if err != nil {
		return nil, err
	}
	if numLabels > binaryLimit {
		return nil, fmt.Errorf("dataset: absurd label count %d", numLabels)
	}
	labels := make([]string, 0, min(numLabels, maxPrealloc))
	for range numLabels {
		n, err := readU32("label length")
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("dataset: absurd label length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("dataset: reading label: %w", err)
		}
		labels = append(labels, string(buf))
	}

	numNodes, err := readU32("node count")
	if err != nil {
		return nil, err
	}
	if numNodes > binaryLimit {
		return nil, fmt.Errorf("dataset: absurd node count %d", numNodes)
	}
	b := graph.NewBuilder(int(min(numNodes, maxPrealloc)), 0)
	for v := uint32(0); v < numNodes; v++ {
		l, err := readU32("node label")
		if err != nil {
			return nil, err
		}
		if l >= numLabels {
			return nil, fmt.Errorf("dataset: node %d has label id %d of %d", v, l, numLabels)
		}
		b.AddNode(labels[l])
	}

	var numEdges uint64
	if err := binary.Read(br, binary.LittleEndian, &numEdges); err != nil {
		return nil, fmt.Errorf("dataset: reading edge count: %w", err)
	}
	if numEdges > binaryLimit {
		return nil, fmt.Errorf("dataset: absurd edge count %d", numEdges)
	}
	for i := uint64(0); i < numEdges; i++ {
		from, err := readU32("edge source")
		if err != nil {
			return nil, err
		}
		to, err := readU32("edge target")
		if err != nil {
			return nil, err
		}
		if from >= numNodes || to >= numNodes {
			return nil, fmt.Errorf("dataset: edge (%d,%d) out of range", from, to)
		}
		b.AddEdge(graph.NodeID(from), graph.NodeID(to))
	}
	return b.Build(), nil
}

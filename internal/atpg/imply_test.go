package atpg

import (
	"fmt"
	"slices"
	"testing"

	"gpustl/internal/netlist"
)

// implyFull is the reference implication: a forward sweep of the whole
// composite circuit, in Order(), from p's current primary-input
// assignment. It returns fresh values and leaves p untouched.
func implyFull(p *podem) []tval {
	val := make([]tval, len(p.nl.Gates))
	sa := p.sa()
	for _, id := range p.nl.Order() {
		g := &p.nl.Gates[id]
		var t tval
		switch g.Kind {
		case netlist.KInput:
			v := p.pi[p.inIx[id]]
			t = tval{v, v}
		case netlist.KConst0:
			t = tval{v0, v0}
		case netlist.KConst1:
			t = tval{v1, v1}
		default:
			var ig, fg [3]byte
			for pin := 0; pin < g.NumIn(); pin++ {
				in := val[g.In[pin]]
				ig[pin] = in.g
				fg[pin] = in.f
				if id == p.fault.Gate && int8(pin) == p.fault.Pin {
					fg[pin] = sa
				}
			}
			t = tval{eval3(g.Kind, ig[0], ig[1], ig[2]), eval3(g.Kind, fg[0], fg[1], fg[2])}
		}
		if id == p.fault.Gate && p.fault.Pin < 0 {
			t.f = sa
		}
		val[id] = t
	}
	return val
}

// dFrontierFull is the reference D-frontier over values val: every gate
// of the netlist, scanned in Order().
func dFrontierFull(p *podem, val []tval) []int32 {
	var out []int32
	for _, id := range p.nl.Order() {
		g := &p.nl.Gates[id]
		if g.NumIn() == 0 {
			continue
		}
		v := val[id]
		if v.g != vX && v.f != vX {
			continue
		}
		if p.fault.Pin >= 0 && id == p.fault.Gate {
			if sg := val[p.siteNet()].g; sg != vX && sg != p.sa() {
				out = append(out, id)
				continue
			}
		}
		for pin := 0; pin < g.NumIn(); pin++ {
			if val[g.In[pin]].isD() {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// coneFrontier is the D-frontier as objective walks it: p's cone, in
// order, filtered by inFrontier.
func coneFrontier(p *podem) []int32 {
	var out []int32
	for _, id := range p.cone {
		if p.inFrontier(id) {
			out = append(out, id)
		}
	}
	return out
}

// checkImplied fails unless p's event-driven values and D-frontier equal
// the full sweep's from the same assignment.
func checkImplied(t *testing.T, p *podem, step string) {
	t.Helper()
	want := implyFull(p)
	for id := range want {
		if p.val[id] != want[id] {
			t.Fatalf("%s: fault %+v, inputs %v: net %d (%v) = %v, full sweep %v",
				step, p.fault, p.pi, id, p.nl.Gates[id].Kind, p.val[id], want[id])
		}
	}
	if got, want := coneFrontier(p), dFrontierFull(p, want); !slices.Equal(got, want) {
		t.Fatalf("%s: fault %+v, inputs %v: D-frontier %v, full sweep %v",
			step, p.fault, p.pi, got, want)
	}
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzNetlist builds a random combinational netlist over every gate kind
// (constants, BUF/NOT, the two-input kinds and MUX), each gate's inputs
// drawn from the nets before it. The last net is always an output.
func fuzzNetlist(r *byteReader) (*netlist.Netlist, error) {
	b := netlist.NewBuilder("fuzz")
	var nets []int32
	for i, n := 0, 1+r.next()%8; i < n; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("i%d", i)))
	}
	pick := func() int32 { return nets[r.next()%len(nets)] }
	for n := 1 + r.next()%48; n > 0; n-- {
		var id int32
		switch r.next() % 11 {
		case 0:
			id = b.Const0()
		case 1:
			id = b.Const1()
		case 2:
			id = b.Buf(pick())
		case 3:
			id = b.Not(pick())
		case 4:
			id = b.And(pick(), pick())
		case 5:
			id = b.Or(pick(), pick())
		case 6:
			id = b.Xor(pick(), pick())
		case 7:
			id = b.Nand(pick(), pick())
		case 8:
			id = b.Nor(pick(), pick())
		case 9:
			id = b.Xnor(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		nets = append(nets, id)
	}
	for i := r.next() % 3; i > 0; i-- {
		b.Output(fmt.Sprintf("o%d", i), pick())
	}
	b.Output("last", nets[len(nets)-1])
	return b.Build()
}

// FuzzImply holds event-driven implication to the full sweep. It builds a
// random combinational netlist, picks a stem or input-pin fault, and
// plays a random sequence of steps, each assigning one to three primary
// inputs (a decision or flip sets 0/1, a backtrack's unassignment sets X)
// and then propagating. After construction and after every step, every
// net's (good, faulty) value and the D-frontier must equal the full
// sweep's from the same assignment.
func FuzzImply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 10, 0, 1, 4, 0, 1, 11, 2, 0, 1, 6, 3, 4, 2, 5, 1, 0})
	f.Add([]byte{7, 40, 4, 0, 1, 5, 2, 3, 6, 4, 5, 10, 1, 6, 7, 9, 8, 2, 7, 3,
		9, 1, 11, 12, 8, 13, 0, 2, 1, 1, 1, 2, 3, 0, 4, 5, 1, 7, 2, 200, 9, 77})
	f.Add([]byte{5, 30, 21, 0, 1, 2, 32, 3, 4, 43, 5, 6, 7, 10, 8, 9, 1, 19,
		10, 11, 12, 2, 1, 0, 13, 5, 3, 9, 1, 1, 255, 4, 0, 2, 0, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		nl, err := fuzzNetlist(&r)
		if err != nil {
			t.Fatal(err)
		}
		gate := int32(r.next() % len(nl.Gates))
		site := netlist.FaultSite{Gate: gate, Pin: -1, SA1: r.next()%2 == 1}
		if n := nl.Gates[gate].NumIn(); n > 0 && r.next()%2 == 1 {
			site.Pin = int8(r.next() % n)
		}
		p := newPodem(nl, site, 0)
		checkImplied(t, p, "initial")
		for step := 0; step < 64 && len(r) > 0; step++ {
			for k := 1 + r.next()%3; k > 0; k-- {
				p.assign(r.next()%len(nl.Inputs), []byte{v0, v1, vX}[r.next()%3])
			}
			p.propagate()
			checkImplied(t, p, fmt.Sprintf("step %d", step))
		}
	})
}

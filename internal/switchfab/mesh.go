package switchfab

import (
	"fmt"
	"sort"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/rs"
	"repro/internal/sim"
)

// Mesh is a W×H 2D-mesh Network-on-Chip built from the same switching
// elements as the scale-out chains — the paper's future-work direction
// ("extending ISN to other protocols and systems, such as Network-on-Chip
// and chiplet interconnects"). Every hop terminates FEC; under ModeRXL
// the end-to-end CRC (with ISN) passes through every router untouched, so
// a flit crossing ten routers gets the same drop/corruption guarantees as
// one crossing a single switch.
//
// Routing is dimension-ordered (XY): a flit first travels along X to its
// destination column, then along Y — deadlock-free and deterministic,
// which matters because ISN requires in-order single-path delivery
// (Section 5 rules out multi-path for CXL-class protocols).
//
// Error injection is schedule-driven per path, not per wire: every
// (source, destination) pair lazily owns one phy.SharedSchedule, and a
// flit's whole XY traversal consumes one hops-wide window of that stream.
// At the injection wire a clean window grants the flit a path pass, so
// every downstream router crossing skips channel work entirely; struck
// traversals consume the stream hop by hop, landing corruption on the
// exact crossing the schedule assigns it (where that hop's FEC
// termination sees it). The grant policy applies identically to fast-path
// and byte-level flits — only the per-hop byte work differs — which is
// what keeps the two bit-identical (internal/core's mesh differential
// suite).
type Mesh struct {
	W, H int
	Eng  *sim.Engine
	// Routers indexes the switching elements as [x][y].
	Routers [][]*Switch

	// out[x][y][d] is the egress wire of router (x,y) toward direction d.
	out [][][meshDirs]*link.Wire
	// locals[x][y] delivers flits addressed to node (x,y).
	locals [][]func(*flit.Flit)
	// localSink[x][y] is the stable engine-event form of locals[x][y]
	// (release when unattached), shared by the hop-by-hop latency event
	// and the express delivery event so neither allocates per flit.
	localSink [][]func(interface{})
	// ingress[x][y] is the wire a node uses to inject at its router.
	ingress [][]*link.Wire

	wires []*link.Wire

	// noExpress disables the express traversal path, forcing every flit
	// through per-hop forwarding events — the PR 5 baseline, kept for
	// benchmarks and the express differential tests.
	noExpress bool

	// ExpressTraversals counts traversals collapsed into up-front wire
	// claims plus a single delivery event; ExpressFallbacks counts
	// routable traversals that paid per-hop events instead — a struck
	// schedule window (the scheduled walk below), a scripted/volatile
	// wire, an installed fault hook, or a fault-configured router.
	// Identical between fast-path and byte-level runs — the express
	// decision never consults the flit's fast-path marks.
	ExpressTraversals uint64
	ExpressFallbacks  uint64

	// walkFn is the stable event sink of scheduled hop-by-hop walks
	// (struck flits on express-eligible routes), bound once so each walk
	// step carries only its *meshWalk payload.
	walkFn func(interface{})

	// wrap marks torus mode: the row/column rings close and routing takes
	// the minimal direction around each ring.
	wrap bool

	// Per-path error-event schedules, keyed src<<8|dst, created on first
	// traffic from a dedicated RNG lineage (deterministic per seed and
	// traffic order). nil maps mean BER 0 — no error model at all.
	paths   map[uint16]*phy.SharedSchedule
	pathRNG *phy.RNG
	ber     float64
	burst   float64
	// berScale is the fault-campaign multiplier currently applied on top
	// of the configured BER (1 outside storm/degrade windows). It steers
	// schedules created after the scale change; SetPathBERScale retunes
	// the already-existing ones.
	berScale float64
	// fec materializes deferred seals when a schedule strikes a deferred
	// flit mid-path.
	fec *rs.Interleaved
}

// Mesh directions.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	meshDirs
)

// MeshConfig carries per-hop timing and the channel error model.
type MeshConfig struct {
	Mode          Mode
	Serialization sim.Time
	Propagation   sim.Time
	RouterLatency sim.Time
	// BER and BurstProb configure the per-path shared error schedules
	// (0 = clean).
	BER       float64
	BurstProb float64
	Seed      uint64
	// Wrap closes the row and column rings, turning the mesh into a 2D
	// torus: every router gains wraparound wires (when the dimension has
	// at least two routers) and dimension-ordered routing takes the
	// minimal direction around each ring, breaking exact ties toward
	// east/south. Everything else — per-hop FEC termination, the (src,dst)
	// routing-tag schedule keying, whole-traversal grants at the ingress
	// wire — is unchanged; only the hop count of a traversal shrinks.
	Wrap bool
	// NoExpress disables the express traversal path: every flit pays one
	// engine event per hop as in PR 5. Express changes the order in which
	// wires are claimed under cross-traffic (the whole route is claimed
	// at injection), so this is a model switch, not an optimization
	// toggle — but on same-path-only traffic the two produce identical
	// timing, which the express tests pin.
	NoExpress bool
}

// DefaultMeshConfig returns NoC-scale timing: 2 ns flits, 1 ns hops,
// 2 ns router traversal.
func DefaultMeshConfig(mode Mode) MeshConfig {
	return MeshConfig{
		Mode:          mode,
		Serialization: sim.FlitTime,
		Propagation:   sim.Nanosecond,
		RouterLatency: 2 * sim.Nanosecond,
	}
}

// MaxMeshNodes is the largest mesh or torus: node IDs travel in the flit's
// one-byte routing tags.
const MaxMeshNodes = 256

// MeshSizeOK reports whether a w×h mesh has 1..MaxMeshNodes nodes. Each
// side is bounded before the product is taken, which would otherwise wrap
// (2^32 × 2^32 is 0 in a 64-bit int).
func MeshSizeOK(w, h int) bool {
	return w >= 1 && h >= 1 && w <= MaxMeshNodes && h <= MaxMeshNodes && w*h <= MaxMeshNodes
}

// NewMesh builds the W×H mesh. Node IDs are y*W+x, carried in the flit's
// routing byte; W*H must fit in one byte.
func NewMesh(eng *sim.Engine, w, h int, cfg MeshConfig) *Mesh {
	if !MeshSizeOK(w, h) {
		panic(fmt.Sprintf("switchfab: mesh %dx%d out of range", w, h))
	}
	m := &Mesh{W: w, H: h, Eng: eng, wrap: cfg.Wrap, berScale: 1, noExpress: cfg.NoExpress}
	if !cfg.NoExpress {
		m.walkFn = m.walkStep
	}
	if cfg.BER > 0 {
		m.paths = make(map[uint16]*phy.SharedSchedule)
		m.pathRNG = phy.NewRNG(cfg.Seed)
		m.ber, m.burst = cfg.BER, cfg.BurstProb
		m.fec = flit.NewFEC()
	}

	m.Routers = make([][]*Switch, w)
	m.out = make([][][meshDirs]*link.Wire, w)
	m.locals = make([][]func(*flit.Flit), w)
	m.localSink = make([][]func(interface{}), w)
	m.ingress = make([][]*link.Wire, w)
	for x := 0; x < w; x++ {
		m.Routers[x] = make([]*Switch, h)
		m.out[x] = make([][meshDirs]*link.Wire, h)
		m.locals[x] = make([]func(*flit.Flit), h)
		m.localSink[x] = make([]func(interface{}), h)
		m.ingress[x] = make([]*link.Wire, h)
		for y := 0; y < h; y++ {
			m.Routers[x][y] = NewSwitch(fmt.Sprintf("R%d.%d", x, y), eng, cfg.Mode, cfg.RouterLatency, nil)
			x, y := x, y
			m.localSink[x][y] = func(p interface{}) {
				f := p.(*flit.Flit)
				if m.locals[x][y] != nil {
					m.locals[x][y](f)
				} else {
					flit.Release(f)
				}
			}
		}
	}

	mkWire := func(deliver func(*flit.Flit)) *link.Wire {
		wr := link.NewWire(eng, cfg.Serialization, cfg.Propagation, deliver)
		m.wires = append(m.wires, wr)
		return wr
	}

	// Inter-router wires: each delivers into the neighbor's pipeline
	// behind a hop crossing of the flit's path schedule. Node-ingress
	// wires are the injection points where whole-path grants are taken.
	// Under Wrap the boundary routers gain wraparound wires in the same
	// direction slots (east from x=W-1 lands on x=0, and so on), so the
	// forwarding switch below needs no wrap-specific cases.
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if x+1 < w {
				m.out[x][y][dirEast] = mkWire(m.hopArrival(x+1, y))
			} else if cfg.Wrap && w > 1 {
				m.out[x][y][dirEast] = mkWire(m.hopArrival(0, y))
			}
			if x > 0 {
				m.out[x][y][dirWest] = mkWire(m.hopArrival(x-1, y))
			} else if cfg.Wrap && w > 1 {
				m.out[x][y][dirWest] = mkWire(m.hopArrival(w-1, y))
			}
			if y+1 < h {
				m.out[x][y][dirSouth] = mkWire(m.hopArrival(x, y+1))
			} else if cfg.Wrap && h > 1 {
				m.out[x][y][dirSouth] = mkWire(m.hopArrival(x, 0))
			}
			if y > 0 {
				m.out[x][y][dirNorth] = mkWire(m.hopArrival(x, y-1))
			} else if cfg.Wrap && h > 1 {
				m.out[x][y][dirNorth] = mkWire(m.hopArrival(x, h-1))
			}
			m.ingress[x][y] = mkWire(m.injectArrival(x, y))
		}
	}
	return m
}

// dimDist is the router count a flit crosses along one dimension: the
// absolute distance on a mesh, the minimal ring distance on a torus.
func (m *Mesh) dimDist(cur, dst, size int) int {
	d := abs(dst - cur)
	if m.wrap && size-d < d {
		d = size - d
	}
	return d
}

// dimStep is the per-dimension routing decision at a router: -1, 0, or +1
// toward the destination coordinate. On a torus the minimal ring direction
// wins; exact ties (even ring sizes, antipodal destination) break toward
// +1 (east/south) so routes stay deterministic.
func (m *Mesh) dimStep(cur, dst, size int) int {
	if cur == dst {
		return 0
	}
	if m.wrap {
		fwd := dst - cur
		if fwd < 0 {
			fwd += size
		}
		if fwd <= size-fwd {
			return 1
		}
		return -1
	}
	if dst > cur {
		return 1
	}
	return -1
}

// HopsBetween counts the wire crossings of a (sx,sy)→(dx,dy) traversal:
// the node-ingress wire plus the routing distance, topology-aware. It is
// the hop count whole-traversal grants consume at injection.
func (m *Mesh) HopsBetween(sx, sy, dx, dy int) int {
	return 1 + m.dimDist(sx, dx, m.W) + m.dimDist(sy, dy, m.H)
}

// pathKey identifies a shared schedule by the flit's routing tags. Both
// tags sit inside the CRC-protected payload, so a corrupted tag resolves
// the same (wrong) schedule on the fast and byte-level paths alike.
func pathKey(src, dst byte) uint16 { return uint16(src)<<8 | uint16(dst) }

// pathSched returns (creating on first use) the shared error schedule of
// the src→dst path, at the BER currently in force (base × fault scale).
func (m *Mesh) pathSched(src, dst byte) *phy.SharedSchedule {
	k := pathKey(src, dst)
	s, ok := m.paths[k]
	if !ok {
		s = phy.NewSharedSchedule(m.ber*m.berScale, m.burst, m.pathRNG.Split(), flit.Bits)
		m.paths[k] = s
	}
	return s
}

// SetPathBERScale multiplies the configured BER of every path schedule —
// the mesh-wide primitive behind scripted lane-degrade and BER-storm
// campaigns (scale 1 restores the configured rate). Existing schedules
// redraw their pending error gap at the new rate from their own RNG
// streams, and schedules created later inherit the scale, so the effect
// is identical no matter which paths have carried traffic yet. On a
// clean mesh (BER 0) there is no error model to scale and the call is a
// no-op. Callers on the fast==byte-level differential contract must
// apply scale changes as simulation events, so both runs retune each
// schedule at the same point of its consumption stream.
func (m *Mesh) SetPathBERScale(scale float64) {
	if scale <= 0 {
		panic("switchfab: non-positive BER scale")
	}
	m.berScale = scale
	if m.paths == nil {
		return
	}
	// Iteration order does not matter: each schedule redraws from its own
	// RNG stream, independent of the others.
	for _, s := range m.paths {
		s.Channel().SetBER(m.ber * scale)
	}
}

// injectArrival wraps router (x,y)'s pipeline for its node-ingress wire:
// the flit's whole traversal opens here. hops counts every wire crossing
// of the XY route — this ingress wire plus the Manhattan distance to the
// destination router; flits with an unroutable destination consume one
// crossing and die at this router.
//
// A flit that wins the whole-traversal grant (or rides a clean BER-0
// mesh, where every traversal is trivially clean) has fully deterministic
// mesh timing, so the traversal tries to go express: claim every wire of
// the route up front and schedule exactly one delivery event. A struck
// flit on the same (express-eligible) route claims its wires up front too
// but walks them with per-hop events (scheduleWalk) — byte work happens
// at each hop, only the claim timing moves to injection, which is what
// keeps every claim on a path in injection order. Routes express cannot
// claim fall back to the lazy per-hop pipeline below. The express
// decision depends only on the grant verdict and route state — never on
// the flit's fast-path marks — so fast-path and byte-level runs take it
// identically.
func (m *Mesh) injectArrival(x, y int) func(*flit.Flit) {
	pipeline := m.routerIngress(x, y)
	if m.paths == nil && m.noExpress {
		return pipeline
	}
	return func(f *flit.Flit) {
		// Both routing tags are read before the injection crossing can
		// corrupt the image: the express decision and the schedule key use
		// the flit's true path identity.
		src := f.Payload()[flit.SrcRouteOffset]
		dst := f.Payload()[flit.RouteOffset]
		dx, dy, ok := m.nodeXY(dst)
		hops := 1
		if ok {
			hops = m.HopsBetween(x, y, dx, dy)
		}
		granted := true
		if m.paths != nil {
			granted = link.BeginPathTraversal(m.pathSched(src, dst), m.fec, f, hops)
		}
		if ok && !m.noExpress {
			if granted && m.expressTraverse(f, x, y, dx, dy) {
				m.ExpressTraversals++
				return
			}
			m.ExpressFallbacks++
			if !granted && m.scheduleWalk(f, x, y, dx, dy) {
				return
			}
		}
		pipeline(f)
	}
}

// meshWalk is the event payload of a scheduled hop-by-hop walk: a struck
// flit on an express-eligible route. Its wires were all claimed at
// injection (claim order identical to express), but it still pays one
// event per hop at the pre-reserved arrival times, crossing its path
// schedule and terminating FEC at every router like the lazy pipeline.
type meshWalk struct {
	f      *flit.Flit
	cx, cy int // router the next walkStep arrives at
	dx, dy int // destination router, fixed at injection (source routing)
	i      int // index into times of the current step
	times  []sim.Time
}

// scheduleWalk carries a struck (ungranted) flit through the mesh with
// its whole route claimed at injection: eligibility is exactly express's,
// so on any eligible path *every* flit — granted express or struck walk —
// claims its wires in injection order, which is what keeps per-path
// delivery in order (ISN's ground rule) without express ever blocking
// behind a draining traversal. The flit still pays one event per hop at
// the pre-reserved arrival times, where it crosses the path schedule and
// terminates FEC byte-for-byte like the lazy pipeline; only the claim
// *timing* moved to injection, and sim.Pipe's claim floor is
// max(now, earliest), so the reserved windows — and every queue-depth
// statistic — are identical to the lazy claims on uncontended paths.
//
// The route is fixed here from the pre-crossing routing tags (source
// routing): corruption that rewrites the route bytes in flight changes
// which schedule later crossings consume — same as the lazy pipeline —
// but not the wires the flit occupies. Returns false, having claimed
// nothing, when the route is not express-eligible; the caller falls back
// to the lazy hop-by-hop pipeline.
func (m *Mesh) scheduleWalk(f *flit.Flit, x, y, dx, dy int) bool {
	cx, cy := x, y
	hops := 0
	for {
		r := m.Routers[cx][cy]
		if r.InternalHook != nil || r.InternalBitFlipProb > 0 {
			return false
		}
		d := m.routeDir(cx, cy, dx, dy)
		if d < 0 {
			break
		}
		w := m.out[cx][cy][d]
		if w == nil || !w.ExpressClaimable() {
			return false
		}
		hops++
		cx, cy = m.neighbor(cx, cy, d)
	}
	if hops == 0 {
		// Local delivery at the injection router: nothing to claim, the
		// lazy pipeline handles it identically.
		return false
	}
	// Injection router: processed now, synchronously — exactly when the
	// lazy pipeline would run it. A struck flit may already be corrupt;
	// an uncorrectable drop here has claimed nothing.
	r := m.Routers[x][y]
	if !r.process(f) {
		flit.Release(f)
		return true
	}
	r.Stats.Forwarded++
	// Claim walk: reserve every route wire up front in route order.
	wk := &meshWalk{f: f, dx: dx, dy: dy, times: make([]sim.Time, 0, hops)}
	arrive := m.Eng.Now()
	cx, cy = x, y
	for {
		d := m.routeDir(cx, cy, dx, dy)
		if d < 0 {
			break
		}
		arrive = m.out[cx][cy][d].Reserve(arrive + m.Routers[cx][cy].Latency)
		wk.times = append(wk.times, arrive)
		cx, cy = m.neighbor(cx, cy, d)
	}
	wk.cx, wk.cy = m.neighbor(x, y, m.routeDir(x, y, dx, dy))
	m.Eng.AtArg(wk.times[0], m.walkFn, wk)
	return true
}

// walkStep is one router arrival of a scheduled walk: cross the path
// schedule, terminate FEC, then deliver locally or chain the next step at
// its pre-reserved time. Scheduling each step from its predecessor — not
// all at once at injection — keeps the engine's (time, schedule-order)
// trajectory aligned with the lazy pipeline's, and means a flit dropped
// mid-walk leaves no dangling event behind.
func (m *Mesh) walkStep(p interface{}) {
	wk := p.(*meshWalk)
	f := wk.f
	if m.paths != nil && !f.TakePathPass() {
		// Same consumption as hopArrival: the possibly-corrupted tags
		// choose the schedule.
		src := f.Payload()[flit.SrcRouteOffset]
		dst := f.Payload()[flit.RouteOffset]
		link.CrossPathUnit(m.pathSched(src, dst), m.fec, f)
	}
	r := m.Routers[wk.cx][wk.cy]
	if !r.process(f) {
		flit.Release(f)
		return
	}
	d := m.routeDir(wk.cx, wk.cy, wk.dx, wk.dy)
	if d < 0 {
		r.Stats.DeliveredLocal++
		sink := m.localSink[wk.cx][wk.cy]
		if r.Latency > 0 {
			m.Eng.ScheduleArg(r.Latency, sink, f)
		} else {
			sink(f)
		}
		return
	}
	r.Stats.Forwarded++
	wk.i++
	wk.cx, wk.cy = m.neighbor(wk.cx, wk.cy, d)
	m.Eng.AtArg(wk.times[wk.i], m.walkFn, wk)
}

// routeDir is the dimension-ordered routing decision at router (cx,cy)
// for destination router (dx,dy): an egress direction, or -1 for local
// delivery. It mirrors routerIngress exactly, so an express walk visits
// precisely the routers and wires the hop-by-hop path would.
func (m *Mesh) routeDir(cx, cy, dx, dy int) int {
	if sx := m.dimStep(cx, dx, m.W); sx > 0 {
		return dirEast
	} else if sx < 0 {
		return dirWest
	}
	if sy := m.dimStep(cy, dy, m.H); sy > 0 {
		return dirSouth
	} else if sy < 0 {
		return dirNorth
	}
	return -1
}

// neighbor returns the router that the direction-d egress wire of (cx,cy)
// lands on, wraparound included.
func (m *Mesh) neighbor(cx, cy, d int) (int, int) {
	switch d {
	case dirEast:
		if cx++; cx == m.W {
			cx = 0
		}
	case dirWest:
		if cx--; cx < 0 {
			cx = m.W - 1
		}
	case dirSouth:
		if cy++; cy == m.H {
			cy = 0
		}
	case dirNorth:
		if cy--; cy < 0 {
			cy = m.H - 1
		}
	}
	return cx, cy
}

// expressTraverse attempts the express path for a granted traversal from
// router (x,y) to router (dx,dy): claim every wire on the route up front,
// run each router's pipeline inline, and schedule one delivery event at
// the analytically-known arrival time. Returns false — having claimed
// nothing — when the route is not express-eligible, so the caller falls
// back to hop-by-hop with no state to unwind.
//
// Eligibility (checked before any claim):
//
//   - No route router carries an internal fault point (hook or
//     probabilistic flip): process() must stay deterministic and
//     RNG-silent when run at claim time instead of arrival time.
//   - Every route wire is ExpressClaimable — no wire-attached error
//     model, no fault hook installed or pending (volatile wires marked by
//     fault scripts). In-flight flits do not block: on an eligible path
//     every flit claims its wires at injection (granted flits here,
//     struck flits via scheduleWalk), so claims — and therefore per-wire
//     serialization and per-path delivery — follow injection order, which
//     is ISN's in-order contract. Eligibility is a property of the route,
//     not the flit, so a path is never in a mixed claim regime.
//
// The claim math per hop is exactly the SendAfter fold — serialization
// starts at max(arrival+latency, wire-free) — so on same-path-only
// traffic express timing is bit-identical to hop-by-hop. Under
// cross-traffic the claim *order* changes (the whole route is claimed at
// injection), which is a change to the fabric model itself and, like the
// PR 5 grant policy, applies identically to fast-path and byte-level
// runs.
func (m *Mesh) expressTraverse(f *flit.Flit, x, y, dx, dy int) bool {
	cx, cy := x, y
	for {
		r := m.Routers[cx][cy]
		if r.InternalHook != nil || r.InternalBitFlipProb > 0 {
			return false
		}
		d := m.routeDir(cx, cy, dx, dy)
		if d < 0 {
			break
		}
		w := m.out[cx][cy][d]
		if w == nil || !w.ExpressClaimable() {
			return false
		}
		cx, cy = m.neighbor(cx, cy, d)
	}
	// Claim walk. Running process() at claim time is unobservable: for an
	// eligible route it touches only the flit image and the router stats,
	// draws no RNG, and cannot drop a granted (hence uncorrupted,
	// CRC-valid) flit.
	arrive := m.Eng.Now()
	cx, cy = x, y
	for {
		r := m.Routers[cx][cy]
		if !r.process(f) {
			// Unreachable for eligible routes; keep the drop semantics in
			// case a future pipeline stage can reject clean flits.
			flit.Release(f)
			return true
		}
		d := m.routeDir(cx, cy, dx, dy)
		if d < 0 {
			r.Stats.DeliveredLocal++
			m.Eng.AtArg(arrive+r.Latency, m.localSink[cx][cy], f)
			return true
		}
		r.Stats.Forwarded++
		if m.paths != nil {
			f.TakePathPass()
		}
		arrive = m.out[cx][cy][d].Reserve(arrive + r.Latency)
		cx, cy = m.neighbor(cx, cy, d)
	}
}

// hopArrival wraps router (x,y)'s pipeline for an inter-router wire: a
// path pass (whole traversal pre-consumed at injection) skips channel
// work entirely; otherwise this crossing consumes one unit of the flit's
// path schedule.
func (m *Mesh) hopArrival(x, y int) func(*flit.Flit) {
	pipeline := m.routerIngress(x, y)
	if m.paths == nil {
		return pipeline
	}
	return func(f *flit.Flit) {
		if !f.TakePathPass() {
			src := f.Payload()[flit.SrcRouteOffset]
			dst := f.Payload()[flit.RouteOffset]
			link.CrossPathUnit(m.pathSched(src, dst), m.fec, f)
		}
		pipeline(f)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// NodeID returns the routing tag of node (x,y).
func (m *Mesh) NodeID(x, y int) byte {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic("switchfab: node out of mesh")
	}
	return byte(y*m.W + x)
}

// nodeXY decodes a routing tag; ok is false for tags outside the mesh.
func (m *Mesh) nodeXY(id byte) (x, y int, ok bool) {
	n := int(id)
	if n >= m.W*m.H {
		return 0, 0, false
	}
	return n % m.W, n / m.W, true
}

// AttachNode installs the delivery function of node (x,y) and returns the
// wire its peers transmit into.
func (m *Mesh) AttachNode(x, y int, deliver func(*flit.Flit)) *link.Wire {
	if deliver == nil {
		panic("switchfab: nil node deliver")
	}
	m.locals[x][y] = deliver
	return m.ingress[x][y]
}

// Wires returns every wire for bulk channel/fault attachment (inter-router
// and node-ingress).
func (m *Mesh) Wires() []*link.Wire { return m.wires }

// InterRouterWire returns the wire from router (x1,y1) to the adjacent
// router (x2,y2), for targeted fault injection on one hop. On a torus the
// wraparound edges are adjacent too: (W-1,y)→(0,y) is that row's East wrap
// wire, (x,H-1)→(x,0) the column's South one, and their reverses
// West/North.
func (m *Mesh) InterRouterWire(x1, y1, x2, y2 int) *link.Wire {
	var w *link.Wire
	switch {
	case x2 == x1+1 && y2 == y1:
		w = m.out[x1][y1][dirEast]
	case x2 == x1-1 && y2 == y1:
		w = m.out[x1][y1][dirWest]
	case x2 == x1 && y2 == y1+1:
		w = m.out[x1][y1][dirSouth]
	case x2 == x1 && y2 == y1-1:
		w = m.out[x1][y1][dirNorth]
	case m.wrap && m.W > 1 && y2 == y1 && x1 == m.W-1 && x2 == 0:
		w = m.out[x1][y1][dirEast]
	case m.wrap && m.W > 1 && y2 == y1 && x1 == 0 && x2 == m.W-1:
		w = m.out[x1][y1][dirWest]
	case m.wrap && m.H > 1 && x2 == x1 && y1 == m.H-1 && y2 == 0:
		w = m.out[x1][y1][dirSouth]
	case m.wrap && m.H > 1 && x2 == x1 && y1 == 0 && y2 == m.H-1:
		w = m.out[x1][y1][dirNorth]
	}
	if w == nil {
		panic(fmt.Sprintf("switchfab: (%d,%d)-(%d,%d) are not adjacent mesh routers", x1, y1, x2, y2))
	}
	return w
}

// routerIngress builds the deliver function of router (x,y): run the
// switch pipeline, then forward by XY dimension-ordered routing. The
// router latency is folded into the egress wire claim (SendAfter), so a
// multi-hop traversal costs one engine event per hop — the wire arrival —
// instead of two. Local deliveries have no egress wire and keep their
// latency event so the node still receives at arrival+Latency.
func (m *Mesh) routerIngress(x, y int) func(*flit.Flit) {
	r := m.Routers[x][y]
	// The stable local-delivery sink per router (shared with the express
	// delivery event), so the per-flit latency schedule carries only the
	// flit instead of allocating a closure.
	deliverLocal := m.localSink[x][y]
	return func(f *flit.Flit) {
		if !r.process(f) {
			flit.Release(f)
			return
		}
		dx, dy, ok := m.nodeXY(f.Payload()[flit.RouteOffset])
		sx, sy := 0, 0
		if ok {
			sx = m.dimStep(x, dx, m.W)
			if sx == 0 {
				sy = m.dimStep(y, dy, m.H)
			}
		}
		switch {
		case !ok:
			r.Stats.DroppedNoRoute++
			flit.Release(f)
		case sx > 0:
			m.forwardTo(r, f, m.out[x][y][dirEast])
		case sx < 0:
			m.forwardTo(r, f, m.out[x][y][dirWest])
		case sy > 0:
			m.forwardTo(r, f, m.out[x][y][dirSouth])
		case sy < 0:
			m.forwardTo(r, f, m.out[x][y][dirNorth])
		default:
			// Local delivery is accounted on its own: counting it as a
			// forward inflated TotalStats().Forwarded by one per delivered
			// flit relative to the flit's actual inter-router hops (see
			// the per-hop audit in internal/core's mesh stats test).
			r.Stats.DeliveredLocal++
			if r.Latency > 0 {
				m.Eng.ScheduleArg(r.Latency, deliverLocal, f)
			} else {
				deliverLocal(f)
			}
		}
	}
}

func (m *Mesh) forwardTo(r *Switch, f *flit.Flit, w *link.Wire) {
	if w == nil {
		r.Stats.DroppedNoRoute++
		flit.Release(f)
		return
	}
	r.Stats.Forwarded++
	w.SendAfter(f, m.Eng.Now()+r.Latency)
}

// TotalStats sums statistics across every router (QueuePeak aggregates by
// max — it is a depth, not a count). Wire-held queue peaks are synced into
// the router stats first.
func (m *Mesh) TotalStats() Stats {
	m.SyncQueuePeaks()
	var t Stats
	for _, col := range m.Routers {
		for _, r := range col {
			t.FlitsIn += r.Stats.FlitsIn
			t.Forwarded += r.Stats.Forwarded
			t.DeliveredLocal += r.Stats.DeliveredLocal
			t.DroppedUncorrectable += r.Stats.DroppedUncorrectable
			t.DroppedCRC += r.Stats.DroppedCRC
			t.DroppedNoRoute += r.Stats.DroppedNoRoute
			t.CorrectedFlits += r.Stats.CorrectedFlits
			t.CorrectedSymbols += r.Stats.CorrectedSymbols
			t.InternalCorruptions += r.Stats.InternalCorruptions
			if r.Stats.QueuePeak > t.QueuePeak {
				t.QueuePeak = r.Stats.QueuePeak
			}
		}
	}
	return t
}

// SyncQueuePeaks folds each router's wire queue high-water marks into its
// Stats.QueuePeak: the max across the router's egress wires and its
// node-ingress wire (the node's injection backlog). Queue depth lives on
// the wires — the mesh is output-queued, a forward queues on the egress
// wire's serialization window — so the per-switch counter is derived
// rather than incremented inline. Express reservations use the same claim
// accounting as hop-by-hop sends, so the peaks are identical across
// express, fast-path, and byte-level runs.
func (m *Mesh) SyncQueuePeaks() {
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			p := m.ingress[x][y].QueuePeak()
			for d := 0; d < meshDirs; d++ {
				if w := m.out[x][y][d]; w != nil && w.QueuePeak() > p {
					p = w.QueuePeak()
				}
			}
			m.Routers[x][y].Stats.QueuePeak = p
		}
	}
}

// NodeQueuePeaks returns the per-node queue-depth high-water marks,
// indexed [y][x] (rows of the mesh, matching node-ID order) — the real
// backpressure numbers of the single-sink/incast scenarios.
func (m *Mesh) NodeQueuePeaks() [][]uint64 {
	m.SyncQueuePeaks()
	out := make([][]uint64, m.H)
	for y := 0; y < m.H; y++ {
		out[y] = make([]uint64, m.W)
		for x := 0; x < m.W; x++ {
			out[y][x] = m.Routers[x][y].Stats.QueuePeak
		}
	}
	return out
}

// HookDrops sums the flits silently dropped by scripted fault hooks
// across every wire of the mesh.
func (m *Mesh) HookDrops() uint64 {
	var t uint64
	for _, w := range m.wires {
		t += w.HookDropped
	}
	return t
}

// PathStat is the channel accounting of one source→destination shared
// schedule.
type PathStat struct {
	Src, Dst                                         byte
	BitsSeen, BitsFlipped, ErrorEvents, UnitsTouched uint64
}

// PathStats snapshots every path schedule's accounting, ordered by
// (src, dst) — the mesh-level analogue of reading each wire's Channel
// stats, used by the fast-vs-slow differential suite.
func (m *Mesh) PathStats() []PathStat {
	if m.paths == nil {
		return nil
	}
	keys := make([]int, 0, len(m.paths))
	for k := range m.paths {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	out := make([]PathStat, 0, len(keys))
	for _, k := range keys {
		ch := m.paths[uint16(k)].Channel()
		out = append(out, PathStat{
			Src: byte(k >> 8), Dst: byte(k),
			BitsSeen: ch.BitsSeen, BitsFlipped: ch.BitsFlipped,
			ErrorEvents: ch.ErrorEvents, UnitsTouched: ch.UnitsTouched,
		})
	}
	return out
}

// MeshNode bundles the per-flow link peers of one mesh node: one peer per
// remote node it talks to, demultiplexed by source tag on delivery.
type MeshNode struct {
	ID        byte
	peers     map[byte]*link.Peer
	attachAll meshAttach
}

// NewMeshNode attaches a node at (x,y) and returns its peer manager.
// linkCfg is the base link configuration; protocol and routing tags are
// filled per flow.
func NewMeshNode(m *Mesh, x, y int, linkCfg link.Config) *MeshNode {
	n := &MeshNode{ID: m.NodeID(x, y), peers: make(map[byte]*link.Peer)}
	ingress := m.AttachNode(x, y, func(f *flit.Flit) {
		src := f.Payload()[flit.SrcRouteOffset]
		if p, ok := n.peers[src]; ok {
			p.Receive(f)
		}
	})
	n.attachAll = func(remote byte) *link.Peer {
		cfg := linkCfg
		cfg.StampRoute = true
		cfg.SrcTag = n.ID
		cfg.RouteTag = remote
		p := link.NewPeer(fmt.Sprintf("n%d->n%d", n.ID, remote), m.Eng, cfg)
		p.Attach(ingress)
		n.peers[remote] = p
		return p
	}
	return n
}

// attachAll creates the peer for a remote node (set in NewMeshNode).
type meshAttach = func(remote byte) *link.Peer

// PeerTo returns (creating on first use) this node's link peer for the
// flow to the given remote node.
func (n *MeshNode) PeerTo(remote byte) *link.Peer {
	if p, ok := n.peers[remote]; ok {
		return p
	}
	return n.attachAll(remote)
}

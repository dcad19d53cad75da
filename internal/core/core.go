// Package core wires the substrates — event simulator, BER channels, link
// layer, switches, and transaction agents — into complete end-to-end
// protocol stacks and runnable experiments. It is the layer the public rxl
// package, the command-line tools, and the benchmark harness sit on.
//
// A Fabric is two endpoints joined across a configurable number of
// switching levels with per-hop bit-error channels. Experiments inject a
// workload at endpoint A, validate deliveries at endpoint B with the
// paper's failure taxonomy (Section 7.1) — Fail_data for corrupted
// payloads reaching the application, Fail_order for misordered or
// duplicated deliveries — and report link, switch, and bandwidth
// statistics.
package core

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/switchfab"
	"repro/internal/trace"
)

// Config describes one end-to-end fabric.
type Config struct {
	// Protocol selects CXL, CXL-without-piggybacking, or RXL.
	Protocol link.Protocol
	// Levels is the number of switching levels (0 = direct connection).
	Levels int
	// BER is the per-link bit error rate (0 disables error injection).
	BER float64
	// BurstProb is the DFE burst-extension probability of the channel.
	BurstProb float64
	// InternalFlipProb is the per-flit probability of a single-bit
	// internal corruption inside each switch (Section 6.3).
	InternalFlipProb float64
	// Seed derives every RNG in the fabric; equal seeds give bit-exact
	// reruns.
	Seed uint64
	// LinkConfig overrides the link-layer configuration. Nil means
	// link.DefaultConfig(Protocol).
	LinkConfig *link.Config
	// NoFastPath forces the byte-level reference path on every link,
	// overriding LinkConfig/defaults: no deferred seals, no error-event
	// schedule skips. The zero value keeps the fast path on (the
	// link.DefaultConfig default); the differential tests prove the two
	// settings produce bit-identical results for identical seeds.
	NoFastPath bool
	// NoExpress disables the express traversal path on mesh fabrics:
	// every flit pays one engine event per hop (the PR 5 model) instead
	// of claiming its whole route at injection. Unlike NoFastPath this is
	// a model switch, not a reference toggle — express changes the wire
	// claim order under cross-traffic — so the differential contract
	// compares fast vs byte-level at equal NoExpress, and the express
	// test suite separately pins express == hop-by-hop timing on
	// same-path-only traffic. Ignored by chain fabrics.
	NoExpress bool
	// Serialization, Propagation and SwitchLatency override the default
	// per-hop timing when non-zero.
	Serialization sim.Time
	Propagation   sim.Time
	SwitchLatency sim.Time
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Levels < 0:
		return fmt.Errorf("core: negative switching levels %d", c.Levels)
	case c.BER < 0 || c.BER > 1:
		return fmt.Errorf("core: BER %g out of [0,1]", c.BER)
	case c.BurstProb < 0 || c.BurstProb >= 1:
		return fmt.Errorf("core: BurstProb %g out of [0,1)", c.BurstProb)
	case c.InternalFlipProb < 0 || c.InternalFlipProb > 1:
		return fmt.Errorf("core: InternalFlipProb %g out of [0,1]", c.InternalFlipProb)
	}
	return nil
}

// Fabric is a live end-to-end stack: engine, chain topology, channels.
type Fabric struct {
	Cfg   Config
	Eng   *sim.Engine
	Chain *switchfab.Chain
	// FwdSched and BwdSched are the per-direction shared error-event
	// schedules (nil when BER is 0): each A→B traversal consumes one
	// levels+1-hop window of FwdSched end-to-end, with the whole-path
	// grant taken at the first wire, and symmetrically for B→A.
	FwdSched, BwdSched *phy.SharedSchedule
	rng                *phy.RNG
}

// NewFabric builds a fabric from the configuration.
func NewFabric(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	ccfg := switchfab.DefaultChainConfig(cfg.Protocol, cfg.Levels)
	if cfg.LinkConfig != nil {
		ccfg.LinkCfg = *cfg.LinkConfig
	}
	if cfg.NoFastPath {
		ccfg.LinkCfg.FastPath = false
	}
	if cfg.Serialization > 0 {
		ccfg.Serialization = cfg.Serialization
	}
	if cfg.Propagation > 0 {
		ccfg.Propagation = cfg.Propagation
	}
	if cfg.SwitchLatency > 0 {
		ccfg.SwitchLatency = cfg.SwitchLatency
	}

	f := &Fabric{Cfg: cfg, Eng: eng, rng: phy.NewRNG(cfg.Seed)}
	f.Chain = switchfab.NewChain(eng, ccfg)

	if cfg.BER > 0 {
		// One shared schedule per direction: the whole A→B (and B→A) path
		// is one error-event stream, consumed a levels+1-hop window per
		// flit. The first wire of each direction is the injection point
		// where whole-path grants are taken.
		f.FwdSched = phy.NewSharedSchedule(cfg.BER, cfg.BurstProb, f.rng.Split(), flit.Bits)
		f.BwdSched = phy.NewSharedSchedule(cfg.BER, cfg.BurstProb, f.rng.Split(), flit.Bits)
		wireSched := func(wires []*link.Wire, s *phy.SharedSchedule) {
			for i, w := range wires {
				w.PathSched = s
				if i == 0 {
					w.PathHops = len(wires)
				}
			}
		}
		wireSched(f.Chain.Fwd, f.FwdSched)
		wireSched(f.Chain.Bwd, f.BwdSched)
	}
	if cfg.InternalFlipProb > 0 {
		for _, s := range f.Chain.Switches {
			s.SeedInternalFaults(cfg.InternalFlipProb, f.rng.Split())
		}
	}
	return f, nil
}

// MustNewFabric is NewFabric panicking on error, for tests and examples.
func MustNewFabric(cfg Config) *Fabric {
	f, err := NewFabric(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// A returns the initiating endpoint's link peer.
func (f *Fabric) A() *link.Peer { return f.Chain.A }

// B returns the destination endpoint's link peer.
func (f *Fabric) B() *link.Peer { return f.Chain.B }

// Run drains the event queue.
func (f *Fabric) Run() { f.Eng.Run() }

// RunFor advances simulated time by d.
func (f *Fabric) RunFor(d sim.Time) { f.Eng.RunUntil(f.Eng.Now() + d) }

// sealedLimit is the extent of the integrity keystream within a payload:
// everything up to the fabric routing bytes (source and destination tags),
// which the link layer may stamp in transit.
func sealedLimit(n int) int {
	if n > flit.SrcRouteOffset {
		return flit.SrcRouteOffset
	}
	return n
}

// payloadBody fills bytes [8:limit) of a tag payload with a cheap
// deterministic keystream of the tag, so corrupted payloads that escape
// the protocol are detectable at the application (Fail_data).
func payloadBody(tag uint64, p []byte) {
	x := keystreamSeed(tag)
	for i := 8; i < sealedLimit(len(p)); i++ {
		x = keystreamNext(x)
		p[i] = byte(x)
	}
}

// keystreamSeed and keystreamNext define payloadBody's xorshift
// keystream: byte i of the body is the low byte of the state after i-7
// steps from the seed.
func keystreamSeed(tag uint64) uint64 { return tag*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D }

func keystreamNext(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// SealedPayload returns a full flit payload carrying tag plus an integrity
// keystream covering the entire deliverable region, so the receiver can
// verify it regardless of zero-padding on the wire.
func SealedPayload(tag uint64) []byte {
	p := trace.TagPayload(tag, flit.PayloadSize)
	payloadBody(tag, p)
	return p
}

// PayloadIntact reports whether a delivered payload matches its tag's
// keystream (ignoring the routing tag bytes at the payload tail). It
// generates the keystream as it compares, so a delivery costs no
// allocation.
func PayloadIntact(p []byte) bool {
	x := keystreamSeed(trace.TagOf(p))
	for i := 8; i < sealedLimit(len(p)); i++ {
		x = keystreamNext(x)
		if p[i] != byte(x) {
			return false
		}
	}
	return true
}

// FailureCounts is the paper's protocol-failure taxonomy (Section 7.1)
// measured at the application boundary of endpoint B.
type FailureCounts struct {
	// Delivered counts payloads handed to the application.
	Delivered int
	// FailData counts deliveries whose payload bytes were corrupted
	// (Fail_data: corrupted data forwarded to the application layer).
	FailData int
	// FailOrder counts out-of-order deliveries (Fail_order: flits
	// forwarded in an incorrect order), including skips past dropped
	// flits.
	FailOrder int
	// Duplicates counts payloads delivered more than once — the Fig. 5a
	// transaction hazard.
	Duplicates int
	// Missing counts tags never delivered.
	Missing int
}

// Clean reports whether delivery was exactly-once, in-order, and intact.
func (fc FailureCounts) Clean() bool {
	return fc.FailData == 0 && fc.FailOrder == 0 && fc.Duplicates == 0 && fc.Missing == 0
}

// Collector accumulates FailureCounts from delivered payloads.
type Collector struct {
	Counts  FailureCounts
	Expect  int // total tags expected (set by the experiment)
	checker *trace.Checker
}

// NewCollector returns a collector expecting `expect` tags.
func NewCollector(expect int) *Collector {
	return &Collector{Expect: expect, checker: trace.NewChecker()}
}

// Deliver is the endpoint delivery callback.
func (c *Collector) Deliver(p []byte) {
	before := *c.checker
	c.checker.Deliver(p)
	c.Counts.Delivered++
	if c.checker.Duplicates > before.Duplicates {
		c.Counts.Duplicates++
	}
	if c.checker.OutOfOrder > before.OutOfOrder {
		c.Counts.FailOrder++
	}
	if !PayloadIntact(p) {
		c.Counts.FailData++
	}
}

// Finish computes Missing and returns the final counts.
func (c *Collector) Finish() FailureCounts {
	unique := c.Counts.Delivered - c.Counts.Duplicates
	if c.Expect > unique {
		c.Counts.Missing = c.Expect - unique
	}
	return c.Counts
}

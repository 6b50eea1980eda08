// Package workload generates the client reference strings for the paper's
// four sharing workloads (HOTCOLD, UNIFORM, HICON, PRIVATE) and the
// Interleaved PRIVATE false-sharing variant (Section 4.2 / Table 2).
//
// A transaction is a string of object references: TransPages distinct
// pages are drawn (hot region with probability HotProb, cold otherwise),
// and on each page a uniform number of distinct objects in
// [LocMin, LocMax] is referenced. Each referenced object is read; with the
// region's per-object write probability it is also updated. The reference
// order is either clustered (all references to a page together) or
// unclustered (references interleaved across pages).
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Kind selects the sharing pattern.
type Kind int

const (
	HotCold Kind = iota
	Uniform
	HiCon
	Private
	InterleavedPrivate
)

var kindNames = [...]string{"HOTCOLD", "UNIFORM", "HICON", "PRIVATE", "INTERLEAVED-PRIVATE"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "Kind(?)"
	}
	return kindNames[k]
}

// Spec describes a workload for one simulation run.
type Spec struct {
	Kind        Kind
	DBPages     int
	ObjsPerPage int
	NumClients  int

	TransPages int // pages accessed per transaction
	LocMin     int // min objects referenced per page
	LocMax     int // max objects referenced per page
	Clustered  bool

	HotPages      int     // hot region size in pages (per client, or shared for HICON)
	HotProb       float64 // probability a page access goes to the hot region
	WriteProbHot  float64 // per-object update probability in the hot region
	WriteProbCold float64 // per-object update probability in the cold region
}

// Validate panics on inconsistent specs (fail fast at experiment setup).
func (s *Spec) Validate() {
	if err := s.Check(); err != nil {
		panic(err)
	}
}

// Check reports why the spec is inconsistent, or nil.
func (s *Spec) Check() error {
	switch {
	case s.DBPages <= 0 || s.ObjsPerPage <= 0 || s.NumClients <= 0:
		return errors.New("workload: sizes must be positive")
	case s.TransPages <= 0 || s.LocMin <= 0 || s.LocMax < s.LocMin || s.LocMax > s.ObjsPerPage:
		return errors.New("workload: bad transaction shape")
	case s.Kind != Uniform && s.HotPages <= 0:
		return errors.New("workload: hot region required")
	case (s.Kind == HotCold || s.Kind == HiCon) && s.HotPages >= s.DBPages:
		return errors.New("workload: hot region exceeds database")
	}
	if s.Kind == HotCold || s.Kind == Private || s.Kind == InterleavedPrivate {
		if s.HotPages*s.NumClients > s.DBPages {
			return fmt.Errorf("workload: %d clients x %d hot pages exceed %d DB pages",
				s.NumClients, s.HotPages, s.DBPages)
		}
	}
	if s.Kind == Private || s.Kind == InterleavedPrivate {
		if s.TransPages > s.HotPages {
			// The paper's footnote: 30-page transactions are incompatible
			// with 25-page PRIVATE hot regions (pages are drawn without
			// replacement).
			return errors.New("workload: transaction larger than PRIVATE hot region")
		}
	}
	return nil
}

// AvgObjectsPerTxn returns the expected transaction length in objects.
func (s *Spec) AvgObjectsPerTxn() float64 {
	return float64(s.TransPages) * float64(s.LocMin+s.LocMax) / 2
}

// Layout builds the physical layout for this spec, installing the
// Interleaved PRIVATE remap when required.
func (s *Spec) Layout() *core.Layout {
	l := core.NewLayout(s.DBPages, s.ObjsPerPage)
	if s.Kind == InterleavedPrivate {
		core.InterleavePairs(l, s.NumClients, func(c int) core.PageID {
			return core.PageID((c - 1) * s.HotPages)
		}, s.HotPages)
	}
	return l
}

// Ref is one object reference in a transaction's string.
type Ref struct {
	Obj   core.ObjID
	Write bool
}

// Generator produces transactions for one client.
type Generator struct {
	spec   Spec
	layout *core.Layout
	client int // 1-based
	rng    *rand.Rand

	hotStart, hotEnd int // logical page range [start, end)

	// NextTxn's scratch.
	pages []pageRefs
	slots []int // the drawn pages' slots, page after page
	perm  []int // one page's slot permutation
}

// NewGenerator creates the generator for client c (1-based).
func NewGenerator(spec Spec, layout *core.Layout, client int, rng *rand.Rand) *Generator {
	spec.Validate()
	if client < 1 || client > spec.NumClients {
		panic("workload: client out of range")
	}
	g := &Generator{spec: spec, layout: layout, client: client, rng: rng,
		perm: make([]int, spec.ObjsPerPage)}
	switch spec.Kind {
	case HotCold, Private, InterleavedPrivate:
		g.hotStart = (client - 1) * spec.HotPages
		g.hotEnd = g.hotStart + spec.HotPages
	case HiCon:
		g.hotStart, g.hotEnd = 0, spec.HotPages
	}
	return g
}

// hot reports whether logical page p lies in this client's hot range.
func (g *Generator) hot(p int) bool { return p >= g.hotStart && p < g.hotEnd }

// coldPage draws a page outside the hot range. For PRIVATE variants the
// cold region is the shared read-only second half of the database; for
// HOTCOLD/HICON it is the rest of the database.
func (g *Generator) coldPage() int {
	s := &g.spec
	switch s.Kind {
	case Uniform:
		return g.rng.Intn(s.DBPages)
	case HotCold:
		// "20% to the database as a whole": the cold draw may land in the
		// hot region too.
		return g.rng.Intn(s.DBPages)
	case Private, InterleavedPrivate:
		half := s.DBPages / 2
		return half + g.rng.Intn(s.DBPages-half)
	default: // HiCon: the rest of the database
		for {
			p := g.rng.Intn(s.DBPages)
			if !g.hot(p) {
				return p
			}
		}
	}
}

// pageRefs is one drawn page of the transaction being generated; its
// slots are the next n entries of Generator.slots.
type pageRefs struct {
	page int
	hot  bool
	n    int
}

// NextTxn generates one transaction reference string. The returned slice
// is freshly allocated (callers keep it across retries); everything else
// is scratch reused from call to call. The RNG draw order is pinned by
// TestGoldenReferenceStrings.
func (g *Generator) NextTxn() []Ref {
	s := &g.spec
	pages, slots := g.pages[:0], g.slots[:0]
draw:
	for len(pages) < s.TransPages {
		var p int
		var isHot bool
		if s.Kind != Uniform && g.rng.Float64() < s.HotProb {
			p = g.hotStart + g.rng.Intn(s.HotPages)
			isHot = true
		} else {
			p = g.coldPage()
			isHot = g.hot(p)
		}
		for i := range pages {
			if pages[i].page == p {
				continue draw // without replacement
			}
		}
		n := s.LocMin + g.rng.Intn(s.LocMax-s.LocMin+1)
		// rand.Perm(ObjsPerPage)[:n], draw for draw, without its allocation
		// (Perm never reads an element before writing it, so the scratch
		// needs no clearing).
		for i := range g.perm {
			j := g.rng.Intn(i + 1)
			g.perm[i] = g.perm[j]
			g.perm[j] = i
		}
		slots = append(slots, g.perm[:n]...)
		pages = append(pages, pageRefs{page: p, hot: isHot, n: n})
	}
	g.pages, g.slots = pages, slots

	refs := make([]Ref, 0, len(slots))
	for _, pr := range pages {
		wp := s.WriteProbCold
		if pr.hot {
			wp = s.WriteProbHot
		}
		for _, slot := range slots[:pr.n] {
			logical := pr.page*s.ObjsPerPage + slot
			refs = append(refs, Ref{
				Obj:   g.layout.Obj(logical),
				Write: g.rng.Float64() < wp,
			})
		}
		slots = slots[pr.n:]
	}
	if !s.Clustered {
		g.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	}
	return refs
}

// ---- Paper presets ----

// Locality selects the paper's two (TransSize, PageLocality) settings,
// both averaging 120 objects per transaction.
type Locality int

const (
	// LowLocality: 30 pages/txn, 1-7 objects per page (avg 4).
	LowLocality Locality = iota
	// HighLocality: 10 pages/txn, 8-16 objects per page (avg 12).
	HighLocality
)

func (l Locality) String() string {
	if l == LowLocality {
		return "low"
	}
	return "high"
}

func (l Locality) apply(s *Spec) {
	if l == LowLocality {
		s.TransPages, s.LocMin, s.LocMax = 30, 1, 7
	} else {
		s.TransPages, s.LocMin, s.LocMax = 10, 8, 16
	}
}

// Defaults shared by the presets (Table 1 sizing).
const (
	DefaultDBPages     = 1250
	DefaultObjsPerPage = 20
	DefaultNumClients  = 10
)

// HotColdSpec builds the HOTCOLD workload: 80% of each client's accesses
// go to its private 50-page hot region, 20% to the whole database.
func HotColdSpec(loc Locality, writeProb float64) Spec {
	s := Spec{
		Kind: HotCold, DBPages: DefaultDBPages, ObjsPerPage: DefaultObjsPerPage,
		NumClients: DefaultNumClients,
		HotPages:   50, HotProb: 0.8,
		WriteProbHot: writeProb, WriteProbCold: writeProb,
	}
	loc.apply(&s)
	return s
}

// UniformSpec builds the UNIFORM workload: accesses uniform over the
// database.
func UniformSpec(loc Locality, writeProb float64) Spec {
	s := Spec{
		Kind: Uniform, DBPages: DefaultDBPages, ObjsPerPage: DefaultObjsPerPage,
		NumClients:   DefaultNumClients,
		WriteProbHot: writeProb, WriteProbCold: writeProb,
	}
	loc.apply(&s)
	return s
}

// HiConSpec builds the HICON workload: all clients direct 80% of accesses
// to one shared hot region of 20% of the database.
func HiConSpec(loc Locality, writeProb float64) Spec {
	s := Spec{
		Kind: HiCon, DBPages: DefaultDBPages, ObjsPerPage: DefaultObjsPerPage,
		NumClients: DefaultNumClients,
		HotPages:   DefaultDBPages / 5, HotProb: 0.8,
		WriteProbHot: writeProb, WriteProbCold: writeProb,
	}
	loc.apply(&s)
	return s
}

// PrivateSpec builds the PRIVATE workload: 25-page private hot regions in
// the first half of the database (updates only there), with the second
// half a shared read-only cold region. Only the high-locality transaction
// shape is compatible (paper footnote); LowLocality selects the paper's
// alternative check of transSize=13, locality 8 (avg).
func PrivateSpec(loc Locality, writeProb float64) Spec {
	s := Spec{
		Kind: Private, DBPages: DefaultDBPages, ObjsPerPage: DefaultObjsPerPage,
		NumClients: DefaultNumClients,
		HotPages:   25, HotProb: 0.8,
		WriteProbHot: writeProb, WriteProbCold: 0,
	}
	if loc == HighLocality {
		loc.apply(&s)
	} else {
		s.TransPages, s.LocMin, s.LocMax = 13, 4, 12 // avg 8 objects/page
	}
	return s
}

// InterleavedPrivateSpec builds the Interleaved PRIVATE workload: PRIVATE
// with the hot objects of client pairs interleaved onto shared pages
// (extreme false sharing). Transactions are generated against the logical
// PRIVATE layout and remapped, yielding roughly transSize 20 and average
// locality 6 as in the paper.
func InterleavedPrivateSpec(writeProb float64) Spec {
	s := PrivateSpec(HighLocality, writeProb)
	s.Kind = InterleavedPrivate
	return s
}

// ParseSpec returns the preset named by a Kind's String (HOTCOLD, UNIFORM,
// HICON, PRIVATE, INTERLEAVED-PRIVATE) at locality "low" or "high" (the
// Interleaved PRIVATE preset has its own), per-object write probability
// writeProb and the given number of clients, or why that spec does not
// fit (Check).
func ParseSpec(kind, locality string, writeProb float64, clients int) (Spec, error) {
	loc, ok := map[string]Locality{"low": LowLocality, "high": HighLocality}[locality]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown locality %q (want low or high)", locality)
	}
	preset, ok := map[string]func(Locality, float64) Spec{
		"HOTCOLD": HotColdSpec, "UNIFORM": UniformSpec, "HICON": HiConSpec, "PRIVATE": PrivateSpec,
		"INTERLEAVED-PRIVATE": func(_ Locality, wp float64) Spec { return InterleavedPrivateSpec(wp) },
	}[kind]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown workload %q", kind)
	}
	s := preset(loc, writeProb)
	s.NumClients = clients
	return s, s.Check()
}

// Scale multiplies the database and hot-region sizes by dbFactor and the
// transaction page count by txnFactor (the paper's Section 5.6.1 scaling:
// dbFactor 9, txnFactor 3).
func Scale(s Spec, dbFactor, txnFactor int) Spec {
	s.DBPages *= dbFactor
	if s.Kind != Uniform {
		s.HotPages *= dbFactor
	}
	s.TransPages *= txnFactor
	return s
}

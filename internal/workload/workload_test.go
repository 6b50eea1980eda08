package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func gen(t *testing.T, s Spec, client int, seed int64) *Generator {
	t.Helper()
	return NewGenerator(s, s.Layout(), client, rand.New(rand.NewSource(seed)))
}

func TestTransactionShape(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"hotcold-low", HotColdSpec(LowLocality, 0.2)},
		{"hotcold-high", HotColdSpec(HighLocality, 0.2)},
		{"uniform-low", UniformSpec(LowLocality, 0.2)},
		{"hicon-high", HiConSpec(HighLocality, 0.2)},
		{"private-high", PrivateSpec(HighLocality, 0.2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen(t, tc.spec, 1, 7)
			for i := 0; i < 50; i++ {
				refs := g.NextTxn()
				pages := map[core.PageID]int{}
				seen := map[core.ObjID]bool{}
				for _, r := range refs {
					pages[r.Obj.Page]++
					if seen[r.Obj] {
						t.Fatalf("object %v referenced twice", r.Obj)
					}
					seen[r.Obj] = true
					if int(r.Obj.Page) >= tc.spec.DBPages || int(r.Obj.Slot) >= tc.spec.ObjsPerPage {
						t.Fatalf("reference %v out of bounds", r.Obj)
					}
				}
				if len(pages) != tc.spec.TransPages {
					t.Fatalf("txn touched %d pages, want %d", len(pages), tc.spec.TransPages)
				}
				for p, n := range pages {
					if n < tc.spec.LocMin || n > tc.spec.LocMax {
						t.Fatalf("page %d has %d refs, want [%d,%d]", p, n, tc.spec.LocMin, tc.spec.LocMax)
					}
				}
			}
		})
	}
}

func TestAverageTransactionLength(t *testing.T) {
	// Both paper settings must average ~120 objects per transaction.
	for _, loc := range []Locality{LowLocality, HighLocality} {
		s := HotColdSpec(loc, 0)
		if got := s.AvgObjectsPerTxn(); got != 120 {
			t.Fatalf("%v: AvgObjectsPerTxn = %v", loc, got)
		}
		g := gen(t, s, 1, 3)
		total := 0
		const txns = 400
		for i := 0; i < txns; i++ {
			total += len(g.NextTxn())
		}
		avg := float64(total) / txns
		if math.Abs(avg-120) > 3 {
			t.Fatalf("%v: empirical avg %.1f objects/txn, want ~120", loc, avg)
		}
	}
}

func TestHotColdSkew(t *testing.T) {
	s := HotColdSpec(LowLocality, 0)
	client := 3
	g := gen(t, s, client, 11)
	hotStart := core.PageID((client - 1) * s.HotPages)
	hotEnd := hotStart + core.PageID(s.HotPages)
	hot, total := 0, 0
	for i := 0; i < 200; i++ {
		for _, r := range g.NextTxn() {
			total++
			if r.Obj.Page >= hotStart && r.Obj.Page < hotEnd {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// 80% directed to the hot region plus ~4% of cold draws landing there
	// (cold is uniform over the whole database, hot region is 4% of it).
	if frac < 0.74 || frac < 0.80*0.9 || frac > 0.90 {
		t.Fatalf("hot fraction = %.3f, want ~0.81", frac)
	}
}

func TestHiConSharedSkew(t *testing.T) {
	s := HiConSpec(LowLocality, 0)
	// All clients share the same hot region [0, 250).
	for _, client := range []int{1, 5, 10} {
		g := gen(t, s, client, 13)
		hot, total := 0, 0
		for i := 0; i < 100; i++ {
			for _, r := range g.NextTxn() {
				total++
				if int(r.Obj.Page) < s.HotPages {
					hot++
				}
			}
		}
		frac := float64(hot) / float64(total)
		if frac < 0.7 || frac > 0.9 {
			t.Fatalf("client %d hot fraction = %.3f", client, frac)
		}
	}
}

func TestPrivateWritesOnlyInOwnRegion(t *testing.T) {
	s := PrivateSpec(HighLocality, 0.5)
	for _, client := range []int{1, 4, 10} {
		g := gen(t, s, client, 17)
		hotStart := core.PageID((client - 1) * s.HotPages)
		hotEnd := hotStart + core.PageID(s.HotPages)
		for i := 0; i < 100; i++ {
			for _, r := range g.NextTxn() {
				if r.Write && (r.Obj.Page < hotStart || r.Obj.Page >= hotEnd) {
					t.Fatalf("client %d wrote %v outside its private region [%d,%d)",
						client, r.Obj, hotStart, hotEnd)
				}
			}
		}
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	s := PrivateSpec(HighLocality, 1.0)
	written := map[core.ObjID]int{}
	for client := 1; client <= s.NumClients; client++ {
		g := gen(t, s, client, 19)
		for i := 0; i < 30; i++ {
			for _, r := range g.NextTxn() {
				if !r.Write {
					continue
				}
				if prev, ok := written[r.Obj]; ok && prev != client {
					t.Fatalf("object %v written by clients %d and %d", r.Obj, prev, client)
				}
				written[r.Obj] = client
			}
		}
	}
}

func TestWriteProbabilityZeroAndOne(t *testing.T) {
	g0 := gen(t, UniformSpec(LowLocality, 0), 1, 23)
	for _, r := range g0.NextTxn() {
		if r.Write {
			t.Fatal("write generated at probability 0")
		}
	}
	g1 := gen(t, UniformSpec(LowLocality, 1), 1, 23)
	for _, r := range g1.NextTxn() {
		if !r.Write {
			t.Fatal("read-only reference at probability 1")
		}
	}
}

func TestClusteredKeepsPagesContiguous(t *testing.T) {
	s := UniformSpec(HighLocality, 0.2)
	s.Clustered = true
	g := gen(t, s, 1, 29)
	for i := 0; i < 20; i++ {
		refs := g.NextTxn()
		seen := map[core.PageID]bool{}
		var cur core.PageID = -1
		for _, r := range refs {
			if r.Obj.Page != cur {
				if seen[r.Obj.Page] {
					t.Fatal("clustered transaction revisited a page")
				}
				seen[r.Obj.Page] = true
				cur = r.Obj.Page
			}
		}
	}
}

func TestUnclusteredInterleaves(t *testing.T) {
	s := UniformSpec(HighLocality, 0.2)
	g := gen(t, s, 1, 31)
	interleaved := false
	for i := 0; i < 20 && !interleaved; i++ {
		refs := g.NextTxn()
		last := map[core.PageID]int{}
		for idx, r := range refs {
			if prev, ok := last[r.Obj.Page]; ok && idx-prev > 1 {
				interleaved = true
			}
			last[r.Obj.Page] = idx
		}
	}
	if !interleaved {
		t.Fatal("unclustered reference strings never interleaved pages")
	}
}

func TestInterleavedPrivateFalseSharing(t *testing.T) {
	s := InterleavedPrivateSpec(0.5)
	layout := s.Layout()
	g1 := NewGenerator(s, layout, 1, rand.New(rand.NewSource(41)))
	g2 := NewGenerator(s, layout, 2, rand.New(rand.NewSource(43)))
	pages1 := map[core.PageID]bool{}
	pages2 := map[core.PageID]bool{}
	objs1 := map[core.ObjID]bool{}
	objs2 := map[core.ObjID]bool{}
	for i := 0; i < 60; i++ {
		for _, r := range g1.NextTxn() {
			if r.Write {
				pages1[r.Obj.Page] = true
				objs1[r.Obj] = true
			}
		}
		for _, r := range g2.NextTxn() {
			if r.Write {
				pages2[r.Obj.Page] = true
				objs2[r.Obj] = true
			}
		}
	}
	sharedPages := 0
	for p := range pages1 {
		if pages2[p] {
			sharedPages++
		}
	}
	if sharedPages == 0 {
		t.Fatal("paired clients never shared a page (interleaving broken)")
	}
	for o := range objs1 {
		if objs2[o] {
			t.Fatalf("object %v written by both clients (should be false sharing only)", o)
		}
	}
	// Objects split page halves: client 1 on top, client 2 on bottom.
	half := uint16(s.ObjsPerPage / 2)
	for o := range objs1 {
		if o.Slot >= half {
			t.Fatalf("client 1 hot object %v in bottom half", o)
		}
	}
	for o := range objs2 {
		if o.Slot < half {
			t.Fatalf("client 2 hot object %v in top half", o)
		}
	}
}

func TestScale(t *testing.T) {
	s := Scale(HotColdSpec(LowLocality, 0.1), 9, 3)
	if s.DBPages != 11250 || s.HotPages != 450 || s.TransPages != 90 {
		t.Fatalf("scaled spec: db=%d hot=%d txn=%d", s.DBPages, s.HotPages, s.TransPages)
	}
	s.Validate()
	g := gen(t, s, 10, 5)
	refs := g.NextTxn()
	pages := map[core.PageID]bool{}
	for _, r := range refs {
		pages[r.Obj.Page] = true
	}
	if len(pages) != 90 {
		t.Fatalf("scaled txn touched %d pages", len(pages))
	}
}

func TestValidatePanics(t *testing.T) {
	cases := map[string]Spec{
		"zero db":      {Kind: Uniform, ObjsPerPage: 20, NumClients: 1, TransPages: 1, LocMin: 1, LocMax: 1},
		"bad locality": func() Spec { s := UniformSpec(LowLocality, 0); s.LocMax = 50; return s }(),
		"hot too big":  func() Spec { s := HotColdSpec(LowLocality, 0); s.HotPages = 5000; return s }(),
		"private txn":  func() Spec { s := PrivateSpec(HighLocality, 0); s.TransPages = 30; return s }(),
	}
	for name, s := range cases {
		s := s
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.Validate()
		})
	}
}

func TestDeterministicGeneration(t *testing.T) {
	s := HotColdSpec(LowLocality, 0.3)
	g1 := gen(t, s, 2, 99)
	g2 := gen(t, s, 2, 99)
	for i := 0; i < 10; i++ {
		a, b := g1.NextTxn(), g2.NextTxn()
		if len(a) != len(b) {
			t.Fatal("lengths differ")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("refs differ at %d: %v vs %v", j, a[j], b[j])
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	for k, name := range kindNames {
		s, err := ParseSpec(name, "high", 0.2, DefaultNumClients)
		if err != nil || s.Kind != Kind(k) || s.WriteProbHot != 0.2 {
			t.Fatalf("ParseSpec(%q) = kind %v, writeprob %v, %v", name, s.Kind, s.WriteProbHot, err)
		}
	}
	if s, _ := ParseSpec("HOTCOLD", "low", 0.1, 1); s.TransPages != 30 || s.NumClients != 1 {
		t.Fatalf("low locality: %d pages per txn, want 30", s.TransPages)
	}
	for _, bad := range []struct {
		kind, locality string
		clients        int
	}{{"HOTCLOD", "low", 1}, {"HOTCOLD", "mid", 1}, {"HOTCOLD", "low", 30}} {
		if _, err := ParseSpec(bad.kind, bad.locality, 0.1, bad.clients); err == nil {
			t.Errorf("ParseSpec(%q, %q, %d clients) = nil error", bad.kind, bad.locality, bad.clients)
		}
	}
}

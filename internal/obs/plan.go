package obs

import "sort"

// This file is the pure reclustering planner: it turns a HeatSnapshot's
// false-sharing suspects into a bounded, deterministic list of object
// migrations. It knows nothing about the live server — the live planner
// goroutine (internal/live) maps each MoveGroup to concrete destination
// addresses and drives the moves as system transactions; the simulator
// applies the same groups as a layout remap. Keeping the policy here
// makes it unit-testable and byte-for-byte reproducible from a snapshot.

// MoveGroup is one planned migration batch: the slots a single writer
// (client) should vacate from a false-sharing suspect page so that the
// page's remaining residents all belong to other writers. Slots are
// ascending and are exclusively written by Writer in the snapshot's
// evidence window (slots two writers both touched are never moved — that
// is true sharing, not false sharing).
type MoveGroup struct {
	Page   int32    `json:"page"`
	Writer int32    `json:"writer"`
	Slots  []uint16 `json:"slots"`
	Score  float64  `json:"score"`
}

// PlanOptions bounds a planning round. Zero values select defaults.
type PlanOptions struct {
	// MaxMoves caps the total objects moved per round (default 64) — the
	// pacing knob that keeps migration traffic a background trickle.
	MaxMoves int
	// UserPages, when positive, excludes pages at or above it from being
	// sources: those are spare (destination) pages owned by the
	// reclusterer itself, and re-splitting them would thrash.
	UserPages int32
	// ObjsPerPage is the page capacity. Slot identities above 63 collapse
	// to bit 63 in the heat evidence, so when ObjsPerPage > 64 any page
	// whose evidence uses bit 63 is skipped as ambiguous rather than
	// risking a move of the wrong object.
	ObjsPerPage int
	// Exclude, when set, drops individual slots from planned groups before
	// MaxMoves is charged. The live planner passes its relocation-table
	// lookup here: heat evidence outlives a migration, so without the
	// filter stale already-moved slots eat the whole budget and paced
	// rounds stop making progress before the page is fully split.
	Exclude func(page int32, slot uint16) bool
}

func (o *PlanOptions) defaults() {
	if o.MaxMoves <= 0 {
		o.MaxMoves = 64
	}
}

// PlanMoves derives migration groups from a snapshot's false-sharing
// suspects. Policy, per suspect page at or above sn.Threshold with
// concrete writer evidence:
//
//   - the writer with the most exclusively-written slots keeps the page
//     (moving the majority resident would maximize migration cost for the
//     same contention win; ties break toward the lower writer id so plans
//     are deterministic),
//   - every other writer gets one MoveGroup with the slots only it wrote,
//   - slots written by two or more writers stay put (true sharing), and
//   - the round stops when MaxMoves total slots are planned.
//
// The result is ordered by descending score (then ascending page, then
// ascending writer), so the hottest pages are split first when the cap
// truncates a round.
func PlanMoves(sn *HeatSnapshot, opts PlanOptions) []MoveGroup {
	if sn == nil {
		return nil
	}
	opts.defaults()

	suspects := make([]FSSuspect, 0, len(sn.FalseSharing))
	for _, s := range sn.FalseSharing {
		if s.Score < sn.Threshold || len(s.WriterSlots) < 2 {
			continue
		}
		if opts.UserPages > 0 && s.Page >= opts.UserPages {
			continue
		}
		if opts.ObjsPerPage > 64 && bit63Used(s.WriterSlots) {
			continue
		}
		suspects = append(suspects, s)
	}
	sort.Slice(suspects, func(i, j int) bool {
		if suspects[i].Score != suspects[j].Score {
			return suspects[i].Score > suspects[j].Score
		}
		return suspects[i].Page < suspects[j].Page
	})

	var out []MoveGroup
	budget := opts.MaxMoves
	for _, s := range suspects {
		if budget <= 0 {
			break
		}
		groups := splitPage(s)
		for _, g := range groups {
			if budget <= 0 {
				break
			}
			if opts.Exclude != nil {
				kept := make([]uint16, 0, len(g.Slots))
				for _, slot := range g.Slots {
					if !opts.Exclude(g.Page, slot) {
						kept = append(kept, slot)
					}
				}
				g.Slots = kept
			}
			if len(g.Slots) == 0 {
				continue
			}
			if len(g.Slots) > budget {
				g.Slots = g.Slots[:budget]
			}
			budget -= len(g.Slots)
			out = append(out, g)
		}
	}
	return out
}

// PlannedObjects returns the total slots across groups (the round's move
// count).
func PlannedObjects(groups []MoveGroup) int {
	n := 0
	for _, g := range groups {
		n += len(g.Slots)
	}
	return n
}

func bit63Used(writers map[int32]uint64) bool {
	for _, m := range writers {
		if m&(1<<63) != 0 {
			return true
		}
	}
	return false
}

// splitPage builds the per-writer move groups for one suspect: exclusive
// masks per writer, keeper = largest exclusive set (ties to lower id),
// everyone else moves out, ordered by ascending writer id.
func splitPage(s FSSuspect) []MoveGroup {
	writers := make([]int32, 0, len(s.WriterSlots))
	for w := range s.WriterSlots {
		writers = append(writers, w)
	}
	sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })

	exclusive := make(map[int32]uint64, len(writers))
	for _, w := range writers {
		mask := s.WriterSlots[w]
		for _, other := range writers {
			if other != w {
				mask &^= s.WriterSlots[other]
			}
		}
		exclusive[w] = mask
	}

	keeper := writers[0]
	for _, w := range writers[1:] {
		if popcount(exclusive[w]) > popcount(exclusive[keeper]) {
			keeper = w
		}
	}

	var out []MoveGroup
	for _, w := range writers {
		if w == keeper {
			continue
		}
		slots := maskSlots(exclusive[w])
		if len(slots) == 0 {
			continue
		}
		out = append(out, MoveGroup{Page: s.Page, Writer: w, Slots: slots, Score: s.Score})
	}
	return out
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func maskSlots(m uint64) []uint16 {
	var out []uint16
	for b := 0; b < 64; b++ {
		if m&(1<<uint(b)) != 0 {
			out = append(out, uint16(b))
		}
	}
	return out
}

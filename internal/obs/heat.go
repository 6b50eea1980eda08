package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Heat is the access-heat and contention collector: per-shard space-saving
// top-K sketches over page and object accesses (read/write split), a
// sketch of contended (block-producing) pages, and a windowed
// false-sharing detector scoring pages whose distinct writers touch
// disjoint resident objects.
//
// Record-path discipline mirrors the Tracer's: disabled, RecordAccess is
// one atomic load; enabled, it hashes the page to a collector shard and
// TryLocks it — on contention the sample is dropped and counted, never
// blocking the data plane. Epoch rotation (Rotate) halves every sketch
// count and folds the epoch's false-sharing scores into a decayed score,
// so hotspots and suspects age out instead of accumulating forever.
type Heat struct {
	enabled atomic.Bool
	reads   atomic.Int64
	writes  atomic.Int64
	blocks  atomic.Int64
	dropped atomic.Int64 // samples lost to record-path contention
	skipped atomic.Int64 // writer sets not tracked (per-epoch page cap)
	epochs  atomic.Int64

	opts   HeatOptions
	shards [heatShards]*heatShard
}

// Collector geometry (DESIGN.md §15).
const (
	// heatShards is the number of independently locked collector shards
	// (a power of two: shardOf masks with heatShards-1).
	heatShards = 8
	// heatFSPages caps the pages per shard whose writer sets are tracked
	// within one epoch; pages beyond the cap are counted in the snapshot's
	// FSSkipped rather than silently ignored.
	heatFSPages = 128
	// heatFSThreshold is the decayed false-sharing score at or above which
	// a page is reported as a suspect (HeatSnapshot.Threshold).
	heatFSThreshold = 0.5
)

// HeatOptions sizes the collector. Zero values select defaults.
type HeatOptions struct {
	// TopK is how many entries Snapshot reports per category. Each shard's
	// sketch keeps 4*TopK candidates, so a key is guaranteed to be
	// retained once its count exceeds N/(4*TopK) of its shard's stream
	// (the space-saving bound). Default 32.
	TopK int
}

func (o *HeatOptions) defaults() {
	if o.TopK <= 0 {
		o.TopK = 32
	}
}

// heatShard is one collector partition: sketches and the false-sharing
// window for the pages that hash to it, under one mutex taken with
// TryLock on the record path and Lock on the (rare) rotate/snapshot path.
type heatShard struct {
	mu      sync.Mutex
	pages   sketch
	objs    sketch
	blocked sketch
	// fs maps page -> writer -> bitmask of slots written this epoch
	// (slot >= 63 collapses to bit 63, which can only under-report
	// disjointness, never invent it).
	fs map[int32]map[int32]uint64
	// prevFS is the previous epoch's writer sets, retained one epoch so a
	// snapshot taken just after a rotation still carries concrete
	// writer->slot evidence for the reclustering planner.
	prevFS map[int32]map[int32]uint64
	// fsScore maps page -> decayed false-sharing state across epochs.
	fsScore map[int32]*fsState
}

// fsState is a page's decayed false-sharing score: each Rotate folds the
// finished epoch's score in at half weight (score = old/2 + epoch/2, with
// 0 for epochs the page drew no multi-writer traffic), so a page must
// keep exhibiting disjoint writers to stay a suspect.
type fsState struct {
	score   float64
	writers int // writers seen in the most recent scored epoch
	epochs  int // epochs in which the page scored
}

// sketchEntry is one space-saving counter. reads/writes are exact since
// admission; errc is the admission overestimate (the evicted minimum), so
// the true count is in [reads+writes, reads+writes+errc].
type sketchEntry struct {
	key    int64
	reads  int64
	writes int64
	errc   int64
}

func (e *sketchEntry) total() int64 { return e.reads + e.writes + e.errc }

// sketch is a space-saving (Metwally et al.) top-K sketch: at most cap
// keys; a new key arriving at capacity evicts the minimum-count entry and
// inherits its count as error bound.
type sketch struct {
	idx  map[int64]int32
	ents []sketchEntry
}

func newSketch(capacity int) sketch {
	return sketch{idx: make(map[int64]int32, capacity), ents: make([]sketchEntry, 0, capacity)}
}

func (s *sketch) observe(key int64, write bool) {
	if i, ok := s.idx[key]; ok {
		if write {
			s.ents[i].writes++
		} else {
			s.ents[i].reads++
		}
		return
	}
	e := sketchEntry{key: key}
	if write {
		e.writes = 1
	} else {
		e.reads = 1
	}
	if len(s.ents) < cap(s.ents) {
		s.idx[key] = int32(len(s.ents))
		s.ents = append(s.ents, e)
		return
	}
	// At capacity: replace the minimum-count entry, inheriting its count
	// as this key's overestimation error.
	min := 0
	for i := 1; i < len(s.ents); i++ {
		if s.ents[i].total() < s.ents[min].total() {
			min = i
		}
	}
	e.errc = s.ents[min].total()
	delete(s.idx, s.ents[min].key)
	s.ents[min] = e
	s.idx[key] = int32(min)
}

// decay halves every count and evicts entries that reach zero.
func (s *sketch) decay() {
	kept := s.ents[:0]
	for i := range s.ents {
		e := &s.ents[i]
		e.reads >>= 1
		e.writes >>= 1
		e.errc >>= 1
		if e.total() > 0 {
			kept = append(kept, *e)
		} else {
			delete(s.idx, e.key)
		}
	}
	s.ents = kept
	for i := range s.ents {
		s.idx[s.ents[i].key] = int32(i)
	}
}

// NewHeat returns a disabled collector.
func NewHeat(opts HeatOptions) *Heat {
	opts.defaults()
	h := &Heat{opts: opts}
	scap := 4 * opts.TopK
	for i := range h.shards {
		h.shards[i] = &heatShard{
			pages:   newSketch(scap),
			objs:    newSketch(scap),
			blocked: newSketch(scap),
			fs:      make(map[int32]map[int32]uint64),
			fsScore: make(map[int32]*fsState),
		}
	}
	return h
}

// SetEnabled switches collection on or off at runtime (nil-safe).
func (h *Heat) SetEnabled(on bool) {
	if h != nil {
		h.enabled.Store(on)
	}
}

// Enabled reports whether samples are being recorded.
func (h *Heat) Enabled() bool { return h != nil && h.enabled.Load() }

// Dropped returns the samples lost to record-path contention.
func (h *Heat) Dropped() int64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Epochs returns the number of completed Rotate calls.
func (h *Heat) Epochs() int64 {
	if h == nil {
		return 0
	}
	return h.epochs.Load()
}

func (h *Heat) shardOf(page int32) *heatShard {
	return h.shards[(uint32(page)*2654435761>>16)&(heatShards-1)]
}

func objKey(page, slot int32) int64 {
	return int64(page)<<16 | int64(uint16(slot))
}

// RecordAccess samples one object access: writer identity is the CLIENT,
// not the transaction — under a private working set one client's
// successive transactions legitimately write disjoint slot subsets of its
// own pages, and txn-keyed scoring would flag every private page; the
// paper's Section 5 pathology is distinct *workstations* co-resident on a
// page (see DESIGN.md §15).
func (h *Heat) RecordAccess(client, page, slot int32, write bool) {
	if h == nil || !h.enabled.Load() {
		return
	}
	if write {
		h.writes.Add(1)
	} else {
		h.reads.Add(1)
	}
	sh := h.shardOf(page)
	if !sh.mu.TryLock() {
		h.dropped.Add(1)
		return
	}
	sh.pages.observe(int64(page), write)
	sh.objs.observe(objKey(page, slot), write)
	if write {
		wm := sh.fs[page]
		if wm == nil {
			if len(sh.fs) >= heatFSPages {
				h.skipped.Add(1)
				sh.mu.Unlock()
				return
			}
			wm = make(map[int32]uint64, 2)
			sh.fs[page] = wm
		}
		bit := uint(slot)
		if bit > 63 {
			bit = 63
		}
		wm[client] |= 1 << bit
	}
	sh.mu.Unlock()
}

// RecordBlock samples one lock conflict (an engine EvBlock) on page.
func (h *Heat) RecordBlock(page int32) {
	if h == nil || !h.enabled.Load() {
		return
	}
	h.blocks.Add(1)
	sh := h.shardOf(page)
	if !sh.mu.TryLock() {
		h.dropped.Add(1)
		return
	}
	sh.blocked.observe(int64(page), true)
	sh.mu.Unlock()
}

// fsEpochScore scores one epoch's writer set: the fraction of writer
// pairs whose written-slot masks are disjoint (1.0 = every pair of
// writers touched non-overlapping objects — pure false sharing). Pages
// with fewer than two writers return -1 (no evidence either way).
func fsEpochScore(writers map[int32]uint64) float64 {
	if len(writers) < 2 {
		return -1
	}
	masks := make([]uint64, 0, len(writers))
	for _, m := range writers {
		masks = append(masks, m)
	}
	disjoint, total := 0, 0
	for i := 0; i < len(masks); i++ {
		for j := i + 1; j < len(masks); j++ {
			total++
			if masks[i]&masks[j] == 0 {
				disjoint++
			}
		}
	}
	return float64(disjoint) / float64(total)
}

// Rotate closes the current epoch: every sketch count halves (entries
// reaching zero are evicted), each page's epoch false-sharing score folds
// into its decayed score at half weight, and the per-epoch writer sets
// reset. Call it periodically (the live server runs a ticker) or at
// deterministic boundaries (the simulator rotates at measurement start
// and end). Nil-safe.
func (h *Heat) Rotate() {
	if h == nil {
		return
	}
	for _, sh := range h.shards {
		sh.mu.Lock()
		sh.pages.decay()
		sh.objs.decay()
		sh.blocked.decay()
		for page, writers := range sh.fs {
			score := fsEpochScore(writers)
			if score < 0 {
				continue
			}
			st := sh.fsScore[page]
			if st == nil {
				st = &fsState{}
				sh.fsScore[page] = st
			}
			st.score = st.score/2 + score/2
			st.writers = len(writers)
			st.epochs++
		}
		for page, st := range sh.fsScore {
			if _, scored := sh.fs[page]; !scored {
				st.score /= 2
			}
			if st.score < 0.01 {
				delete(sh.fsScore, page)
			}
		}
		sh.prevFS = sh.fs
		sh.fs = make(map[int32]map[int32]uint64)
		sh.mu.Unlock()
	}
	h.epochs.Add(1)
}

// HeatEntry is one sketched key in a snapshot. Count is the space-saving
// estimate (Reads+Writes exact since admission, plus at most Err inherited
// from the entry evicted at admission).
type HeatEntry struct {
	Page   int32 `json:"page"`
	Slot   int32 `json:"slot"` // -1 for page-grain entries
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Count  int64 `json:"count"`
	Err    int64 `json:"err"`
}

// FSSuspect is one page's decayed false-sharing score. WriterSlots is the
// concrete evidence behind the score: for each writer (client) seen in the
// current or previous epoch, the bitmask of slots it wrote (slot >= 63
// collapses to bit 63). The reclustering planner consumes it to decide
// which writer's objects to migrate where.
type FSSuspect struct {
	Page        int32            `json:"page"`
	Score       float64          `json:"score"`
	Writers     int              `json:"writers"`
	Epochs      int              `json:"epochs"`
	WriterSlots map[int32]uint64 `json:"writer_slots,omitempty"`
}

// HeatSnapshot is a merged view across collector shards: the global top-K
// per category plus every page with a live false-sharing score.
type HeatSnapshot struct {
	Enabled      bool        `json:"enabled"`
	Epochs       int64       `json:"epochs"`
	Reads        int64       `json:"reads"`
	Writes       int64       `json:"writes"`
	Blocks       int64       `json:"blocks"`
	Dropped      int64       `json:"dropped"`
	FSSkipped    int64       `json:"fs_skipped"`
	Threshold    float64     `json:"threshold"`
	TopPages     []HeatEntry `json:"top_pages"`
	TopObjects   []HeatEntry `json:"top_objects"`
	Contended    []HeatEntry `json:"contended_pages"`
	FalseSharing []FSSuspect `json:"false_sharing"`
}

// Suspects returns the snapshot's pages at or above the suspect threshold.
func (sn *HeatSnapshot) Suspects() []FSSuspect {
	var out []FSSuspect
	for _, s := range sn.FalseSharing {
		if s.Score >= sn.Threshold {
			out = append(out, s)
		}
	}
	return out
}

// Score returns the decayed false-sharing score of page in the snapshot
// (0 if untracked).
func (sn *HeatSnapshot) Score(page int32) float64 {
	for _, s := range sn.FalseSharing {
		if s.Page == page {
			return s.Score
		}
	}
	return 0
}

func topEntries(all []HeatEntry, k int) []HeatEntry {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		if all[i].Page != all[j].Page {
			return all[i].Page < all[j].Page
		}
		return all[i].Slot < all[j].Slot
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Snapshot merges the shards (locking one at a time) into a sorted view.
// Nil-safe: a nil collector yields a zero snapshot.
func (h *Heat) Snapshot() *HeatSnapshot {
	sn := &HeatSnapshot{}
	if h == nil {
		return sn
	}
	sn.Enabled = h.enabled.Load()
	sn.Epochs = h.epochs.Load()
	sn.Reads = h.reads.Load()
	sn.Writes = h.writes.Load()
	sn.Blocks = h.blocks.Load()
	sn.Dropped = h.dropped.Load()
	sn.FSSkipped = h.skipped.Load()
	sn.Threshold = heatFSThreshold
	var pages, objs, blocked []HeatEntry
	for _, sh := range h.shards {
		sh.mu.Lock()
		for i := range sh.pages.ents {
			e := &sh.pages.ents[i]
			pages = append(pages, HeatEntry{Page: int32(e.key), Slot: -1,
				Reads: e.reads, Writes: e.writes, Count: e.total(), Err: e.errc})
		}
		for i := range sh.objs.ents {
			e := &sh.objs.ents[i]
			objs = append(objs, HeatEntry{Page: int32(e.key >> 16), Slot: int32(uint16(e.key)),
				Reads: e.reads, Writes: e.writes, Count: e.total(), Err: e.errc})
		}
		for i := range sh.blocked.ents {
			e := &sh.blocked.ents[i]
			blocked = append(blocked, HeatEntry{Page: int32(e.key), Slot: -1,
				Writes: e.writes, Count: e.total(), Err: e.errc})
		}
		// writerEvidence merges a page's writer->slot masks from the live
		// epoch and the retained previous epoch (nil when neither saw
		// multi-writer traffic), so suspects carry actionable evidence no
		// matter where in the epoch the snapshot lands.
		writerEvidence := func(page int32) map[int32]uint64 {
			var out map[int32]uint64
			for _, src := range []map[int32]map[int32]uint64{sh.prevFS, sh.fs} {
				for w, mask := range src[page] {
					if out == nil {
						out = make(map[int32]uint64, len(src[page]))
					}
					out[w] |= mask
				}
			}
			return out
		}
		for page, st := range sh.fsScore {
			sn.FalseSharing = append(sn.FalseSharing, FSSuspect{
				Page: page, Score: st.score, Writers: st.writers, Epochs: st.epochs,
				WriterSlots: writerEvidence(page)})
		}
		// The live epoch's writer sets count too: a snapshot taken before
		// the first rotation should already implicate pages under attack.
		for page, writers := range sh.fs {
			if score := fsEpochScore(writers); score >= 0 {
				found := false
				for i := range sn.FalseSharing {
					if sn.FalseSharing[i].Page == page {
						s := &sn.FalseSharing[i]
						if score > s.Score {
							s.Score = score
							s.Writers = len(writers)
						}
						found = true
						break
					}
				}
				if !found {
					sn.FalseSharing = append(sn.FalseSharing, FSSuspect{
						Page: page, Score: score, Writers: len(writers),
						WriterSlots: writerEvidence(page)})
				}
			}
		}
		sh.mu.Unlock()
	}
	sn.TopPages = topEntries(pages, h.opts.TopK)
	sn.TopObjects = topEntries(objs, h.opts.TopK)
	sn.Contended = topEntries(blocked, h.opts.TopK)
	sort.Slice(sn.FalseSharing, func(i, j int) bool {
		if sn.FalseSharing[i].Score != sn.FalseSharing[j].Score {
			return sn.FalseSharing[i].Score > sn.FalseSharing[j].Score
		}
		return sn.FalseSharing[i].Page < sn.FalseSharing[j].Page
	})
	return sn
}

// trackedCounts returns (pages, objects) currently retained in sketches.
func (h *Heat) trackedCounts() (pages, objects int64) {
	for _, sh := range h.shards {
		sh.mu.Lock()
		pages += int64(len(sh.pages.ents))
		objects += int64(len(sh.objs.ents))
		sh.mu.Unlock()
	}
	return
}

// RegisterMetrics publishes the collector on reg under the oodb_heat_*
// names — identical from the live server and the simulator.
func (h *Heat) RegisterMetrics(reg *Registry) {
	reg.FuncCounter(`oodb_heat_accesses_total{op="read"}`,
		"object accesses sampled by the heat collector, by operation", h.reads.Load)
	reg.FuncCounter(`oodb_heat_accesses_total{op="write"}`, "", h.writes.Load)
	reg.FuncCounter("oodb_heat_blocks_total",
		"lock conflicts (engine blocks) sampled by the heat collector", h.blocks.Load)
	reg.FuncCounter("oodb_heat_epochs_total",
		"heat epoch rotations (sketch decay + false-sharing score fold)", h.epochs.Load)
	reg.FuncGauge("oodb_heat_enabled", "1 when the heat collector is recording",
		func() int64 {
			if h.enabled.Load() {
				return 1
			}
			return 0
		})
	reg.FuncGauge("oodb_heat_tracked_pages", "pages retained in the heat sketches",
		func() int64 { p, _ := h.trackedCounts(); return p })
	reg.FuncGauge("oodb_heat_tracked_objects", "objects retained in the heat sketches",
		func() int64 { _, o := h.trackedCounts(); return o })
}

// WriteJSON writes the current snapshot as one JSON object.
func (h *Heat) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h.Snapshot())
}

// WriteHuman writes the snapshot as a readable report.
func (h *Heat) WriteHuman(w io.Writer) error {
	sn := h.Snapshot()
	if _, err := fmt.Fprintf(w, "heat: enabled=%v epochs=%d reads=%d writes=%d blocks=%d dropped=%d fs-skipped=%d\n",
		sn.Enabled, sn.Epochs, sn.Reads, sn.Writes, sn.Blocks, sn.Dropped, sn.FSSkipped); err != nil {
		return err
	}
	if len(sn.TopPages) > 0 {
		fmt.Fprintf(w, "\ntop pages (count ~ reads+writes, +err overestimate):\n")
		for _, e := range sn.TopPages {
			fmt.Fprintf(w, "  page %-8d count=%-8d reads=%-8d writes=%-8d err=%d\n",
				e.Page, e.Count, e.Reads, e.Writes, e.Err)
		}
	}
	if len(sn.TopObjects) > 0 {
		fmt.Fprintf(w, "\ntop objects:\n")
		for _, e := range sn.TopObjects {
			fmt.Fprintf(w, "  obj %d/%-5d count=%-8d reads=%-8d writes=%-8d err=%d\n",
				e.Page, e.Slot, e.Count, e.Reads, e.Writes, e.Err)
		}
	}
	if len(sn.Contended) > 0 {
		fmt.Fprintf(w, "\ncontended pages (lock conflicts):\n")
		for _, e := range sn.Contended {
			fmt.Fprintf(w, "  page %-8d blocks=%d\n", e.Page, e.Count)
		}
	}
	if len(sn.FalseSharing) > 0 {
		fmt.Fprintf(w, "\nfalse-sharing scores (suspect >= %.2f):\n", sn.Threshold)
		for _, s := range sn.FalseSharing {
			mark := " "
			if s.Score >= sn.Threshold {
				mark = "*"
			}
			fmt.Fprintf(w, "%s page %-8d score=%.2f writers=%d epochs=%d\n",
				mark, s.Page, s.Score, s.Writers, s.Epochs)
		}
	}
	return nil
}

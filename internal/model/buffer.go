package model

import (
	"container/list"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
)

// serverBuf is the server buffer pool: an LRU page table over the
// configured number of frames. Misses read from a uniformly chosen disk
// (charging DiskOverheadInst); dirty evictions write back asynchronously.
type serverBuf struct {
	eng   *sim.Engine
	cpu   *sim.CPU
	disks []*sim.Disk
	rng   *rand.Rand
	ioCPU float64 // DiskOverheadInst

	capacity int
	frames   map[core.PageID]*frame
	lru      *list.List
	fetching map[core.PageID][]func()

	// Stats.
	Hits, Misses, Writebacks int64
}

type frame struct {
	elem  *list.Element
	dirty bool
}

func newServerBuf(eng *sim.Engine, cpu *sim.CPU, disks []*sim.Disk, rng *rand.Rand,
	capacity int, ioCPU float64) *serverBuf {
	return &serverBuf{
		eng: eng, cpu: cpu, disks: disks, rng: rng, ioCPU: ioCPU,
		capacity: capacity,
		frames:   make(map[core.PageID]*frame),
		lru:      list.New(),
		fetching: make(map[core.PageID][]func()),
	}
}

func (b *serverBuf) disk() *sim.Disk { return b.disks[b.rng.Intn(len(b.disks))] }

// ensure runs fn once page p is resident, fetching it from disk first if
// needed. Concurrent requests for the same page share one fetch.
func (b *serverBuf) ensure(p core.PageID, fn func()) {
	if f := b.frames[p]; f != nil {
		b.Hits++
		b.lru.MoveToFront(f.elem)
		fn()
		return
	}
	if waiters, ok := b.fetching[p]; ok {
		b.fetching[p] = append(waiters, fn)
		return
	}
	b.Misses++
	b.fetching[p] = []func(){fn}
	b.evictOne()
	b.cpu.UseSystem(b.ioCPU, func() {
		b.disk().IO(func() {
			// Install the frame unless a commit installed it meanwhile.
			if b.frames[p] == nil {
				f := &frame{}
				f.elem = b.lru.PushFront(p)
				b.frames[p] = f
			}
			waiters := b.fetching[p]
			delete(b.fetching, p)
			for _, w := range waiters {
				w()
			}
		})
	})
}

// install places a page shipped by a committing client into the pool (no
// read needed) and marks it dirty.
func (b *serverBuf) install(p core.PageID) {
	if f := b.frames[p]; f != nil {
		f.dirty = true
		b.lru.MoveToFront(f.elem)
		return
	}
	b.evictOne()
	f := &frame{dirty: true}
	f.elem = b.lru.PushFront(p)
	b.frames[p] = f
}

// installObj applies an object-granularity commit install (OS): the home
// page must be resident, so a miss costs a read ("installation read").
func (b *serverBuf) installObj(p core.PageID) {
	b.ensure(p, func() {
		if f := b.frames[p]; f != nil {
			f.dirty = true
		}
	})
}

// evictOne frees a frame if the pool is full, writing back dirty victims
// asynchronously.
func (b *serverBuf) evictOne() {
	for b.lru.Len()+len(b.fetching) >= b.capacity {
		e := b.lru.Back()
		if e == nil {
			return
		}
		p := e.Value.(core.PageID)
		f := b.frames[p]
		b.lru.Remove(e)
		delete(b.frames, p)
		if f.dirty {
			b.Writebacks++
			b.cpu.UseSystem(b.ioCPU, func() {
				b.disk().IO(nil)
			})
		}
	}
}

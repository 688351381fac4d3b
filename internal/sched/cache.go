package sched

import (
	"fmt"
	"sort"

	"rvcap/internal/bitstream"
	"rvcap/internal/fault"
	"rvcap/internal/mem"
	"rvcap/internal/sim"
)

// imgKey identifies one partial bitstream: partitions have disjoint
// frame spans, so every (partition, module) pair is a distinct image.
// The module is its dense intern ID in the package Modules table, so
// the per-dispatch cache and image lookups hash two ints instead of a
// string.
type imgKey struct {
	rp  int
	mod int
}

// moduleName resolves a key's module name for error messages.
func (k imgKey) moduleName() string { return Modules.Name(k.mod) }

// sdBytesPerCycle is the modelled SD→DDR staging bandwidth: 1 byte per
// 100 MHz cycle = 100 MB/s (a fast SDHC read stream). A cache miss
// therefore costs several times a reconfiguration — the asymmetry that
// makes the DDR-resident cache and its prefetcher worth having.
const sdBytesPerCycle = 1

// Staging retry policy: a failed SD stream is retried a few times with
// a growing backoff (mirroring the driver's ReadBlock policy), then the
// entry is dropped — a waiting dispatcher re-requests it, which draws a
// fresh fault decision.
const (
	stageAttempts    = 4
	stageBackoffBase = sim.Time(2000)
)

// cacheState tracks one image's residency in the DDR staging area.
type cacheState int

const (
	stateFetching cacheState = iota
	statePresent
)

// cacheEntry is one occupied cache slot. Records are pooled: gen
// increments every time a record is reused, so a dispatcher that
// parked on an entry can tell a recycled record apart from the one it
// pinned even when the pool hands the same pointer back for the same
// key (the pointer-equality drop check alone would alias).
type cacheEntry struct {
	key     imgKey
	state   cacheState
	addr    uint64
	bytes   int
	lastUse uint64 // LRU clock (unique per touch)
	pinned  int    // >0 while the dispatcher needs the image in place
	gen     uint64 // reuse generation, survives the pooled reset
}

// bitCache is the DDR-resident bitstream cache: a fixed number of
// equal-sized DDR slots holding partial bitstreams staged from the SD
// card, filled by a dedicated fetch process and evicted LRU. All state
// lives on the simulation kernel's single thread; determinism follows
// from the unique LRU clock (eviction picks the strictly smallest
// lastUse, so map iteration order is unobservable).
type bitCache struct {
	ddr     *mem.DDR
	images  map[imgKey]*bitstream.Image
	entries map[imgKey]*cacheEntry
	free    []uint64 // unused slot base addresses, ascending

	// entryPool recycles evicted/invalidated cacheEntry records so the
	// steady-state miss path reuses instead of allocating.
	entryPool []*cacheEntry

	// queue is the FIFO of images awaiting the fetcher, drained from
	// qHead so the backing array is reused instead of sliding away (a
	// slid-forward slice loses its front capacity and reallocates on
	// every wrap).
	queue    []imgKey
	qHead    int
	fetchSig *sim.Signal
	// stageBuf is the reused serialisation buffer of a staged image.
	stageBuf []byte
	wake     *sim.Signal // the runtime's dispatcher wake-up

	// plan, when set, injects SD staging faults and bitstream
	// corruption; stages counts staging attempts (the plan's sequence
	// number, so retries draw fresh decisions).
	plan   *fault.Plan
	stages uint64

	clock uint64

	hits, misses, prefetches, evictions int
	stageRetries, stageDrops, corrupted int
}

// cacheBase is where the staging slots start in DDR (clear of the
// demo/image regions used elsewhere in the repo).
const cacheBase = 0x0200_0000

// newBitCache validates the configuration up front: a zero-image map or
// too few slots would leave ensure blocked forever (the fetcher has
// nothing to stage, or every slot stays pinned), so both are
// construction errors rather than runtime hangs.
func newBitCache(ddr *mem.DDR, slots int, images map[imgKey]*bitstream.Image, fetchSig, wake *sim.Signal) (*bitCache, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("sched: bitstream cache needs at least one image")
	}
	if slots < 2 {
		return nil, fmt.Errorf("sched: %d cache slots cannot hold a pinned image and a fetch in flight", slots)
	}
	slotBytes := 0
	for _, im := range images {
		if im.SizeBytes() > slotBytes {
			slotBytes = im.SizeBytes()
		}
	}
	// Word-align slot strides.
	slotBytes = (slotBytes + 3) &^ 3
	c := &bitCache{
		ddr:      ddr,
		images:   images,
		entries:  make(map[imgKey]*cacheEntry),
		fetchSig: fetchSig,
		wake:     wake,
	}
	for i := 0; i < slots; i++ {
		c.free = append(c.free, cacheBase+uint64(i*slotBytes))
	}
	return c, nil
}

func (c *bitCache) touch(e *cacheEntry) {
	c.clock++
	e.lastUse = c.clock
}

// request starts staging key into the cache unless it is already
// present or in flight. It reports false when every slot is pinned or
// still fetching (the caller retries after progress).
func (c *bitCache) request(key imgKey, prefetch bool) bool {
	if _, ok := c.entries[key]; ok {
		return true
	}
	if _, ok := c.images[key]; !ok {
		return false
	}
	addr, ok := c.allocSlot()
	if !ok {
		return false
	}
	var e *cacheEntry
	if n := len(c.entryPool); n > 0 {
		e = c.entryPool[n-1]
		c.entryPool = c.entryPool[:n-1]
	} else {
		e = new(cacheEntry)
	}
	*e = cacheEntry{key: key, state: stateFetching, addr: addr, bytes: c.images[key].SizeBytes(), gen: e.gen + 1}
	c.touch(e)
	c.entries[key] = e
	if c.qHead == len(c.queue) {
		// Fully drained: rewind so the backing array is reused.
		c.queue, c.qHead = c.queue[:0], 0
	}
	c.queue = append(c.queue, key)
	if prefetch {
		c.prefetches++
	}
	c.fetchSig.Fire()
	return true
}

// allocSlot returns a free slot base, evicting the least-recently-used
// unpinned resident image if necessary.
func (c *bitCache) allocSlot() (uint64, bool) {
	if len(c.free) > 0 {
		addr := c.free[0]
		c.free = c.free[1:]
		return addr, true
	}
	var victim *cacheEntry
	for _, e := range c.entries {
		if e.state != statePresent || e.pinned > 0 {
			continue
		}
		// lastUse values are unique, so the minimum is well defined
		// regardless of map iteration order.
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	if victim == nil {
		return 0, false
	}
	delete(c.entries, victim.key)
	c.entryPool = append(c.entryPool, victim)
	c.evictions++
	return victim.addr, true
}

// ensure blocks the calling process until key's image is resident, and
// returns its (pinned) entry. The dispatch-time lookup is what the hit
// rate counts: present = hit, anything else = miss. An unknown key is
// a configuration error, not a hang.
func (c *bitCache) ensure(p *sim.Proc, key imgKey) (*cacheEntry, error) {
	if _, ok := c.images[key]; !ok {
		return nil, fmt.Errorf("sched: no image for module %q on partition %d", key.moduleName(), key.rp)
	}
	if e, ok := c.entries[key]; ok && e.state == statePresent {
		c.hits++
		c.touch(e)
		e.pinned++
		return e, nil
	}
	c.misses++
	for {
		if e, ok := c.entries[key]; ok {
			// Pin through the fetch so a concurrent prefetch cannot
			// evict the image between completion and use.
			e.pinned++
			gen := e.gen
			dropped := false
			for e.state != statePresent {
				// The wake heartbeat cycle this wait participates in is
				// suppressed at its anchor, the sched.fetch spawn in
				// Board.Run (board.go).
				p.Wait(c.wake)
				if c.entries[key] != e || e.gen != gen {
					// The fetcher dropped the entry after exhausting
					// its staging retries (and the pooled record may
					// already be serving a fresh fetch of the same
					// key); request it afresh.
					dropped = true
					break
				}
			}
			if dropped {
				continue
			}
			c.touch(e)
			return e, nil
		}
		if !c.request(key, false) {
			// Every slot pinned or fetching: wait for progress.
			p.Wait(c.wake)
		}
	}
}

// unpin releases one pin. Unbalanced unpins are bugs that would
// silently disable eviction protection, so underflow panics.
func (c *bitCache) unpin(e *cacheEntry) {
	if e.pinned <= 0 {
		panic(fmt.Sprintf("sched: unpin underflow on %s/rp%d", e.key.moduleName(), e.key.rp))
	}
	e.pinned--
}

// invalidate drops key's staged copy so the next ensure re-stages it
// from the SD card — the dispatcher calls this after a failed load,
// when the DDR copy may be the corrupted one. A pinned or in-flight
// entry is left alone.
func (c *bitCache) invalidate(key imgKey) {
	e, ok := c.entries[key]
	if !ok || e.pinned > 0 || e.state != statePresent {
		return
	}
	delete(c.entries, key)
	c.freeSlot(e.addr)
	c.entryPool = append(c.entryPool, e)
}

// freeSlot returns a slot to the free list, keeping it sorted so slot
// assignment stays independent of release order.
func (c *bitCache) freeSlot(addr uint64) {
	c.free = append(c.free, addr)
	sort.Slice(c.free, func(i, j int) bool { return c.free[i] < c.free[j] })
}

// runFetcher is the SD staging engine: a kernel-confined process that
// drains the fetch queue in FIFO order, charging the SD streaming time
// and then materialising the image in its DDR slot. It models the SD
// controller's autonomous DMA; the hart is not involved. With a fault
// plan attached, individual streams can fail (bounded retries, then
// the entry is dropped) or deliver a corrupted image.
func (c *bitCache) runFetcher(p *sim.Proc, stop *sim.Signal) {
	for {
		if c.qHead == len(c.queue) {
			// Fully drained: rewind so the backing array is reused.
			c.queue, c.qHead = c.queue[:0], 0
			if p.WaitAny(c.fetchSig, stop) == 1 {
				return
			}
			continue
		}
		key := c.queue[c.qHead]
		c.qHead++
		e, ok := c.entries[key]
		if !ok || e.state != stateFetching {
			// Stale queue entry: evicted or re-requested while queued.
			continue
		}
		im := c.images[key]
		if !c.stage(p, e, im) {
			// Retries exhausted: drop the entry so waiting dispatchers
			// re-request (and draw a fresh fault decision). Dispatchers
			// may be pinned-and-waiting on this very entry — ensure pins
			// before its wait loop — so the drop must forcibly release
			// those pins: the waiters detect the replacement and pin a
			// fresh entry, and nobody will ever unpin the dropped one.
			// Deleting it with pins still counted would orphan them and
			// make the unpin-underflow invariant unenforceable.
			c.stageDrops++
			e.pinned = 0
			delete(c.entries, key)
			c.freeSlot(e.addr)
			c.entryPool = append(c.entryPool, e)
			c.wake.Fire()
			continue
		}
		e.state = statePresent
		c.wake.Fire()
	}
}

// stage streams one image from SD into its DDR slot, retrying failed
// streams with backoff. It reports false when the retry budget is
// exhausted.
func (c *bitCache) stage(p *sim.Proc, e *cacheEntry, im *bitstream.Image) bool {
	backoff := stageBackoffBase
	for attempt := 0; attempt < stageAttempts; attempt++ {
		seq := c.stages
		c.stages++
		if attempt > 0 {
			c.stageRetries++
			p.Sleep(backoff)
			backoff *= 2
		}
		if c.plan != nil && c.plan.SDRead(seq) {
			// The stream died partway: charge half the transfer time.
			p.Sleep(sim.Time(im.SizeBytes() / sdBytesPerCycle / 2))
			continue
		}
		p.Sleep(sim.Time(im.SizeBytes() / sdBytesPerCycle))
		c.stageBuf = bitstream.AppendBytes(c.stageBuf[:0], im.Words)
		data := c.stageBuf
		e.bytes = im.SizeBytes()
		if c.plan != nil {
			switch cor := c.plan.Stage(seq, len(data)); cor.Kind {
			case fault.CorruptBitFlip:
				data = bitstream.FlipBit(data, cor.Bit)
				c.corrupted++
			case fault.CorruptTruncate:
				data = bitstream.Truncate(data, cor.Bytes)
				e.bytes = len(data)
				c.corrupted++
			}
		}
		c.ddr.Load(e.addr, data)
		return true
	}
	return false
}

// hitRate returns the dispatch-time cache hit rate.
func (c *bitCache) hitRate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

package zkv

import (
	"encoding/binary"
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/trace"
	"zcache/internal/workloads"
)

// EquivReport is the outcome of one equivalence replay: the same reference
// stream driven through a one-shard zkv store and through a reference cache
// built exactly as the simulator builds an L2 bank, with eviction victims
// captured on both sides.
type EquivReport struct {
	Workload string
	Accesses int
	// Hits/Misses are the reference side's demand counts; Match implies
	// the zkv side agrees exactly.
	Hits, Misses uint64
	// Victims is the length of the (identical) eviction victim sequence.
	Victims int
	// Match reports bit-identical victim sequences and equal hit/miss
	// counts. Detail explains the first divergence when false.
	Match  bool
	Detail string
}

// ReplayEquiv replays accesses references of workload w through both
// engines and compares their eviction decisions. cfg's shard count is
// forced to 1 (sharding partitions the key space across independent
// arrays; the simulator equivalent of a sharded store is one bank per
// shard, which the per-shard claim covers one shard at a time).
func ReplayEquiv(w workloads.Workload, cfg Config, accesses int) (EquivReport, error) {
	reps, err := ReplayRouted(w, cfg, []uint64{cfg.Seed}, func([]byte) int { return 0 }, accesses)
	if err != nil {
		return EquivReport{Workload: w.Name, Accesses: accesses}, err
	}
	return reps[0], nil
}

// ReplayRouted is the replay-and-compare core of every equivalence
// harness. It replays accesses references of workload w onto len(seeds)
// one-shard stores, store i built from cfg with seed seeds[i] and paired
// with its simulator-built reference (NewRefCache), routing each key to
// store route(key). It returns one report per store; each Accesses counts
// the references that store saw.
//
// The mapping is the one zcached serves: each trace line address becomes an
// 8-byte key; reads are Get (filling on miss), writes are Set. The
// reference cache sees the key's fingerprint as its line address, so both
// engines hash, walk, relocate, and evict over the same 64-bit space. One
// trace stream, seeded with cfg.Seed, has its footprint anchored to the
// stores' total capacity, so the workload presets stress eviction the way
// they stress a simulated L2.
func ReplayRouted(w workloads.Workload, cfg Config, seeds []uint64, route func(key []byte) int, accesses int) ([]EquivReport, error) {
	type pair struct {
		store                 *Store
		ref                   *cache.Cache
		refVictims, kvVictims []uint64
	}
	pairs := make([]pair, len(seeds))
	reps := make([]EquivReport, len(seeds))
	capacity := uint64(0)
	for i := range pairs {
		scfg := cfg
		scfg.Shards, scfg.Seed = 1, seeds[i]
		p := &pairs[i]
		var err error
		if p.store, err = Open(scfg); err != nil {
			return nil, err
		}
		defer p.store.Close()
		if p.ref, err = NewRefCache(scfg); err != nil {
			return nil, err
		}
		p.ref.OnEviction = func(addr uint64, dirty bool) { p.refVictims = append(p.refVictims, addr) }
		p.store.SetEvictHook(func(shard int, line uint64) { p.kvVictims = append(p.kvVictims, line) })
		capacity += uint64(p.store.Capacity())
		reps[i].Workload = w.Name
	}

	const lineBytes = 64
	gens, err := w.Generators(1, lineBytes, capacity*lineBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var (
		key   [8]byte
		val   [16]byte
		dst   []byte
		batch = make([]trace.Access, 256)
	)
	for done := 0; done < accesses; {
		n := trace.FillBatch(gens[0], batch[:min(len(batch), accesses-done)])
		if n == 0 {
			break
		}
		for _, a := range batch[:n] {
			line := a.Addr / lineBytes
			binary.BigEndian.PutUint64(key[:], line)
			i := route(key[:])
			p := &pairs[i]
			reps[i].Accesses++
			p.ref.Access(hash.Bytes64(key[:]), a.Write)
			var ok bool
			if !a.Write {
				dst, ok = p.store.Get(key[:], dst[:0])
			}
			if !ok {
				binary.BigEndian.PutUint64(val[:], line)
				if err := p.store.Set(key[:], val[:]); err != nil {
					return nil, err
				}
			}
		}
		done += n
	}

	for i := range pairs {
		p, rep := &pairs[i], &reps[i]
		refStats := p.ref.Stats()
		kv := p.store.Stats()
		rep.Hits, rep.Misses = refStats.Hits, refStats.Misses
		rep.Victims = len(p.refVictims)
		rep.Match = true
		kvHits := kv.GetHits + kv.Overwrites
		kvMisses := kv.Inserts
		switch {
		case kv.Collisions != 0:
			// An 8-byte-key replay cannot alias fingerprints short of a
			// Bytes64 collision; treat one as a divergence, not luck.
			rep.Match, rep.Detail = false, fmt.Sprintf("%d fingerprint collisions", kv.Collisions)
		case kvHits != refStats.Hits || kvMisses != refStats.Misses:
			rep.Match = false
			rep.Detail = fmt.Sprintf("hit/miss mismatch: ref %d/%d, zkv %d/%d",
				refStats.Hits, refStats.Misses, kvHits, kvMisses)
		case len(p.refVictims) != len(p.kvVictims):
			rep.Match = false
			rep.Detail = fmt.Sprintf("victim count mismatch: ref %d, zkv %d", len(p.refVictims), len(p.kvVictims))
		default:
			for vi := range p.refVictims {
				if p.refVictims[vi] != p.kvVictims[vi] {
					rep.Match = false
					rep.Detail = fmt.Sprintf("victim %d diverges: ref %#x, zkv %#x",
						vi, p.refVictims[vi], p.kvVictims[vi])
					break
				}
			}
		}
	}
	return reps, nil
}

// NewRefCache builds the simulator-equivalent reference engine for a
// one-shard store with cfg (zero fields defaulted): the simulator's L2-bank
// construction — H3 family, ZCache array, paper policy, cache.Cache
// controller — over the same seed derivation shard 0 of the store uses.
// Feeding it key fingerprints as line addresses reproduces the store's
// eviction decisions bit-for-bit; both equivalence harnesses build their
// references through this.
func NewRefCache(cfg Config) (*cache.Cache, error) {
	cfg = cfg.withDefaults()
	fns, err := (hash.H3Family{Seed: shardSeed(cfg.Seed, 0)}).New(cfg.Ways, cfg.Rows)
	if err != nil {
		return nil, err
	}
	arr, err := cache.NewZCache(cfg.Rows, fns, cfg.Levels)
	if err != nil {
		return nil, err
	}
	var pol repl.Policy
	switch cfg.Policy {
	case PolicyBucketedLRU:
		pol, err = repl.PaperBucketedLRU(arr.Blocks())
	case PolicyFullLRU:
		pol, err = repl.NewLRU(arr.Blocks())
	default:
		err = fmt.Errorf("zkv: unknown policy %v", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	return cache.New(arr, pol, 0)
}

// ReplayEquivByName resolves a workload preset by name and replays it.
func ReplayEquivByName(name string, cfg Config, accesses int) (EquivReport, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return EquivReport{}, fmt.Errorf("zkv: unknown workload %q", name)
	}
	return ReplayEquiv(w, cfg, accesses)
}

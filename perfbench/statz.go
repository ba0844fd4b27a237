package main

import "repro/internal/serve"

// statzDelta is what the nodes did between two /statz scrapes: counters
// as differences summed over nodes, gauges (heap, GC pause) as the
// highest reading of the second scrape.
type statzDelta struct {
	CacheHits, CellHits, CoalescedHits, CacheMisses uint64
	DedupCollapses, Rejected                        uint64
	MemHits, DiskHits, DataMisses, Evictions        uint64
	HeapMiB, GCPauseP99MS                           float64
}

// delta folds two scrapes keyed by node name. A node missing from
// before counts from zero.
func delta(before, after map[string]serve.Statz) statzDelta {
	var d statzDelta
	for name, a := range after {
		b := before[name]
		d.CacheHits += a.CacheHits - b.CacheHits
		d.CellHits += a.CellHits - b.CellHits
		d.CoalescedHits += a.CoalescedHits - b.CoalescedHits
		d.CacheMisses += a.CacheMisses - b.CacheMisses
		d.DedupCollapses += a.DedupCollapses - b.DedupCollapses
		d.Rejected += a.Rejected - b.Rejected
		d.MemHits += a.DataCache.MemHits - b.DataCache.MemHits
		d.DiskHits += a.DataCache.DiskHits - b.DataCache.DiskHits
		d.DataMisses += a.DataCache.Misses - b.DataCache.Misses
		d.Evictions += a.DataCache.Evictions - b.DataCache.Evictions
		d.HeapMiB = max(d.HeapMiB, float64(a.Process.HeapAllocBytes)/(1<<20))
		d.GCPauseP99MS = max(d.GCPauseP99MS, a.Process.GCPauseP99MS)
	}
	return d
}

// hits is every prediction served without computing it.
func (d statzDelta) hits() uint64 { return d.CacheHits + d.CellHits + d.CoalescedHits }

// hitRatio is hits over all predictions; 0 with no predictions.
func (d statzDelta) hitRatio() float64 {
	total := d.hits() + d.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(d.hits()) / float64(total)
}

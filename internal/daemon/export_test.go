package daemon

import "mbplib/internal/sim/tracecache"

// CacheStats exposes the counters of the decoded-trace cache that every
// job shares, for the external tests.
func (d *Daemon) CacheStats() tracecache.Stats { return d.cache.Stats() }

package cluster

import "time"

// splitmix64 is a single mixing step of the splitmix generator: enough
// to decorrelate nearby seeds into independent-looking jitter streams
// for backoffDelay.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay returns the wait before retry number attempt (1-based):
// exponential base·2^(attempt−1), capped at max, scaled by a
// deterministic jitter factor in [½, 1) derived from seed — so
// schedules are reproducible in tests yet staggered across jobs.
func backoffDelay(attempt int, base, max time.Duration, seed uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter scales into [½, 1): keep half the delay, randomize the rest.
	frac := float64(splitmix64(seed^uint64(attempt))>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// jitterSeed is a job's backoffDelay seed: FNV-1a over the job ID, so
// distinct jobs get distinct but reproducible jitter streams.
func jitterSeed(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

package edc

// WithDedupPolicy hands the device d exactly as written — WithDedup sets
// Enabled for its caller — so the external tests can check that a policy
// with the flag off is inert.
func WithDedupPolicy(d *Dedup) Option { return func(c *config) { c.dev.Dedup = d } }

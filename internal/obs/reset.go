package obs

// Resetter is anything whose measurement counters can be zeroed at a
// warmup boundary. The cost model, hosts, machines, servers, proxies,
// histograms, and the Collector itself all implement it.
type Resetter interface{ ResetMeters() }

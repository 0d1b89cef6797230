// Package a is metricname testdata: names must be dotted lowercase
// string constants.
package a

import "preemptsched/internal/obs"

const requests = "app.requests.total"

func record(r *obs.Registry, dyn string) {
	r.Inc(requests)                       // constant, conforming
	r.Add("app.cache.hits", 2)            // literal, conforming
	r.Observe("app.latency.seconds", 1.5) // conforming
	r.Inc("BadName")                      // want "does not match"
	r.Inc("single")                       // want "does not match"
	r.Inc("app.Mixed.Case")               // want "does not match"
	r.Inc(dyn)                            // want "not a string constant"
	r.Inc("app." + dyn)                   // want "not a string constant"
	r.SetGauge("app.queue.depth", 3)      // conforming
}

func handles(r *obs.Registry, dyn string) {
	c := r.Counter("app.requests.handled") // constant, conforming
	c.Inc()
	r.Histogram("app.dump.seconds").Observe(0.5) // conforming
	r.Counter(dyn)                               // want "not a string constant"
	r.Counter("app." + dyn)                      // want "not a string constant"
	r.Histogram("BadHandle")                     // want "does not match"
	r.Gauge("app.queue.peak").Max(2)             // conforming
	r.Gauge("app.node." + dyn + ".peak")         // want "not a string constant"
	r.Gauge("BadGauge")                          // want "does not match"
}

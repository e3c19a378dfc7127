package main

import (
	"math/rand/v2"
	"net/url"
	"strconv"
)

// Request lists. Every input the benchmark sends is a pure function of
// the workload seed and the request's index, so two runs with the same
// seed serve the same list in the same order, whichever commit they
// measure; a faster program serves a longer prefix of it in the same
// time.

var topologies = [3]string{"small", "medium", "large"}

// The what-if MC request shape: the horizon and fixed replication budget
// of an interactive what-if query.
const (
	mcHorizon = 2e4
	mcReps    = 256
)

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Salts keep the seed lists of different uses apart.
const (
	saltMC    = 0x6d63       // whatif_mc and sharded requests
	saltTail  = 0x7461696c   // tail estimates
	saltWarm  = 0x7761726d   // set-up warm-up requests
	saltAlloc = 0x616c6c6f63 // the mc allocation measurement
)

// seedStride is prime and coprime to mc.ReplicationSeed's stride, so no
// two items of one list share a replication stream.
const seedStride = 7919

// seedAt returns the simulation seed of item i of the list for a workload
// seed and salt. The seeds of one list are distinct.
func seedAt(seed int64, salt uint64, i int) int64 {
	return int64(mix(uint64(seed)^salt)>>3) + int64(i)*seedStride
}

// indexOfSeed inverts seedAt: the item whose simulation seed is s.
func indexOfSeed(seed int64, salt uint64, s int64) int {
	return int((s - seedAt(seed, salt, 0)) / seedStride)
}

// combo is one cell of topology × scenario × cluster.
type combo struct {
	Topology string
	Scenario int
	Cluster  int
}

// combos lists the 12 cells in a fixed order.
func combos() []combo {
	var out []combo
	for _, t := range topologies {
		for _, s := range []int{1, 2} {
			for _, c := range []int{3, 5} {
				out = append(out, combo{t, s, c})
			}
		}
	}
	return out
}

// mcQuery is one /api/v1/mc what-if request.
type mcQuery struct {
	combo
	Horizon float64
	Reps    int
	Seed    int64
}

// encode renders the query string (url.Values sorts the keys).
func (q mcQuery) encode() string {
	v := url.Values{}
	v.Set("profile", "opencontrail")
	v.Set("topology", q.Topology)
	v.Set("scenario", strconv.Itoa(q.Scenario))
	v.Set("cluster", strconv.Itoa(q.Cluster))
	v.Set("horizon", strconv.FormatFloat(q.Horizon, 'g', -1, 64))
	v.Set("reps", strconv.Itoa(q.Reps))
	v.Set("seed", strconv.FormatInt(q.Seed, 10))
	return v.Encode()
}

// mcRequest returns request i of the whatif_mc list. Each block of 12
// consecutive requests covers every combo once, in an order shuffled per
// block, so any prefix of the list has nearly the same mix whatever the
// seed; each request carries its own simulation seed.
func mcRequest(seed int64, i int) mcQuery {
	block, pos := i/12, i%12
	r := rand.New(rand.NewPCG(uint64(seed), uint64(block)))
	perm := r.Perm(12)
	return mcQuery{
		combo:   combos()[perm[pos]],
		Horizon: mcHorizon,
		Reps:    mcReps,
		Seed:    seedAt(seed, saltMC, i),
	}
}

// analyticQuery is one /api/v1/analytic request: a combo plus the three
// availabilities the SW-centric model is most sensitive to.
type analyticQuery struct {
	combo
	A, AS, AH float64
}

func (q analyticQuery) encode() string {
	v := url.Values{}
	v.Set("profile", "opencontrail")
	v.Set("topology", q.Topology)
	v.Set("scenario", strconv.Itoa(q.Scenario))
	v.Set("cluster", strconv.Itoa(q.Cluster))
	v.Set("a", strconv.FormatFloat(q.A, 'g', -1, 64))
	v.Set("as", strconv.FormatFloat(q.AS, 'g', -1, 64))
	v.Set("ah", strconv.FormatFloat(q.AH, 'g', -1, 64))
	return v.Encode()
}

// hotKeys is the size of the analytic workload's hot set.
const hotKeys = 256

// analyticKey draws a key: combo k mod 12, parameters from the stream.
func analyticKey(r *rand.Rand, k int) analyticQuery {
	return analyticQuery{
		combo: combos()[k%12],
		A:     0.9999 + 0.00009*r.Float64(),
		AS:    0.999 + 0.0009*r.Float64(),
		AH:    0.999 + 0.0009*r.Float64(),
	}
}

// hotKey returns key k of the hot set.
func hotKey(seed int64, k int) analyticQuery {
	return analyticKey(rand.New(rand.NewPCG(uint64(seed), 1<<40|uint64(k))), k)
}

// analyticRequest returns request i of the whatif_analytic list: nine
// in ten come from the hot set, one in ten is a fresh parameter draw the
// server has not seen.
func analyticRequest(seed int64, i int) (q analyticQuery, hot bool) {
	h := mix(uint64(seed)*0x2545f4914f6cdd1d + uint64(i))
	if h%10 != 0 {
		return hotKey(seed, int(h/10%hotKeys)), true
	}
	return analyticKey(rand.New(rand.NewPCG(uint64(seed), 2<<40|uint64(i))), int(h/10)), false
}

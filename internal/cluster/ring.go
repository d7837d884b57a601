// Package cluster turns N reseedd replicas into one service: a
// consistent-hash ring and request gateway that keep each replica warm
// for its shard of the circuit universe (internal/engine.RouteKey), with
// health probes that move a dead replica's keys down their preference
// lists. Solves run whole on the replica that owns their key.
//
// Ring placement is a pure hash of the replica names, so every gateway
// given the same replica list routes each key to the same replica.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodesPerReplica is the number of ring points each replica owns. 128
// keeps the key distribution within a few percent of uniform for small
// clusters while the ring stays tiny (N×128 points).
const vnodesPerReplica = 128

// Ring is a consistent-hash ring over replica names (base URLs). Create
// it with NewRing; a Ring is immutable and safe for concurrent use —
// membership changes build a new Ring, and because placement is
// per-point, adding or removing one replica moves only ~1/N of the keys.
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256,
// platform independent and stable across releases (placement is part of
// the cluster's warm-cache behavior, not an implementation detail).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given replicas. Order does not matter
// and duplicates are dropped: two gateways configured with the same set
// in any order agree on every placement.
func NewRing(replicas []string) *Ring {
	seen := make(map[string]bool, len(replicas))
	var uniq []string
	for _, rep := range replicas {
		if rep != "" && !seen[rep] {
			seen[rep] = true
			uniq = append(uniq, rep)
		}
	}
	sort.Strings(uniq)
	r := &Ring{replicas: uniq}
	for i, rep := range uniq {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", rep, v)), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Replicas returns the ring members, sorted.
func (r *Ring) Replicas() []string {
	return append([]string(nil), r.replicas...)
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.replicas) }

// Lookup returns the replica owning key — the primary the gateway sends
// the request to, and the shard whose artifact caches stay warm for it.
// It is "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	pref := r.Preference(key, 1)
	if len(pref) == 0 {
		return ""
	}
	return pref[0]
}

// Preference returns up to n distinct replicas for key in failover
// order: the primary first, then the next distinct owners clockwise
// around the ring. A gateway retries a failed request down this list, so
// a key's fallback targets are as stable as its primary.
func (r *Ring) Preference(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.replica] {
			taken[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}

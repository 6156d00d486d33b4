package gate

import "time"

// Idempotency-key dedup. The reliability layer suppresses duplicate
// frames with per-peer recvNext cursors and tombstones for the
// out-of-order window; the gate applies the same idea one level up: a
// (tenant, key) pair maps to the job it first created, and the mapping
// survives for a TTL after creation so a client retrying through an
// unreliable path gets the original job back instead of a second
// execution. Expiry is lazy — entries are swept in small increments on
// the insert path, so there is no background goroutine to leak and the
// cost stays proportional to churn.

type idemEntry struct {
	jobID   string
	expires time.Time
}

type idemTable struct {
	entries map[string]idemEntry
	sweep   []string // FIFO of keys in insertion order, for incremental expiry
}

// idemTTL is how long a completed job's idempotency key keeps answering
// duplicates.
const idemTTL = 10 * time.Minute

func newIdemTable() *idemTable {
	return &idemTable{entries: make(map[string]idemEntry)}
}

// idemKey joins tenant and key with a byte neither may contain, so
// ("a", "b\x00c") cannot collide with ("a\x00b", "c") — tenants are
// flag-configured names, keys are client data.
func idemKey(tenant, key string) string { return tenant + "\x00" + key }

// lookup reports the job an unexpired (tenant, key) maps to.
func (t *idemTable) lookup(tenant, key string, now time.Time) (string, bool) {
	e, ok := t.entries[idemKey(tenant, key)]
	if !ok || now.After(e.expires) {
		return "", false
	}
	return e.jobID, true
}

// insert records the mapping and opportunistically expires a few of the
// oldest entries. Insertion order approximates expiry order (the TTL is
// uniform), so checking the FIFO head is enough to keep the table from
// growing past live-entry count by more than a constant factor.
func (t *idemTable) insert(tenant, key, jobID string, now time.Time) {
	k := idemKey(tenant, key)
	t.entries[k] = idemEntry{jobID: jobID, expires: now.Add(idemTTL)}
	t.sweep = append(t.sweep, k)
	for i := 0; i < 2 && len(t.sweep) > 0; i++ {
		head := t.sweep[0]
		e, ok := t.entries[head]
		if ok && !now.After(e.expires) {
			break
		}
		if ok {
			delete(t.entries, head)
		}
		t.sweep = t.sweep[1:]
	}
}

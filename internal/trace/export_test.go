package trace

// Len reports the number of retained events. Product code reads Events;
// the tests count through this.
func (t *Tracer) Len() int { return len(t.Events()) }

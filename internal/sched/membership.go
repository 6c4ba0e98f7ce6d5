package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"olevgrid/internal/v2i"
)

// joinQueueDepth bounds how many vehicles can be waiting to enter a
// round; a real on-ramp merges a handful of OLEVs per quote interval,
// not hundreds.
const joinQueueDepth = 64

// pendingJoin is a vehicle waiting to be admitted at the next round
// boundary.
type pendingJoin struct {
	id   string
	link v2i.Transport
}

// Join registers a vehicle while a run may be in progress: the
// vehicle is queued and enters the iteration at the next round
// boundary with a zero allocation and a fresh quote. Join is safe to
// call from any goroutine, including concurrently with Run; it only
// fails on invalid arguments or a full join queue. A vehicle that
// re-joins under an ID it used in an earlier session gets fresh
// sequence tracking, so its new session's frames are not mistaken for
// replays.
func (c *Coordinator) Join(id string, link v2i.Transport) error {
	if id == "" {
		return errors.New("sched: vehicle needs an ID")
	}
	if link == nil {
		return errors.New("sched: vehicle needs a transport")
	}
	select {
	case c.joins <- pendingJoin{id: id, link: link}:
		return nil
	default:
		return fmt.Errorf("sched: join queue full (%d pending)", joinQueueDepth)
	}
}

// admitJoins drains the join queue at a round boundary, returning the
// slots admitted this round. A join under an ID that is still active is
// rejected by closing the new link — the live session wins. A vehicle
// re-joining under an ID the journal's last-known-good checkpoint
// knows (a dropout reconnecting after a dead zone, or a lane regular
// returning) warm-starts from its journaled allocation instead of
// zero: the fleet's background load barely moves on re-entry, so the
// re-convergence is a short trip instead of a cold one. Theorem IV.1
// makes the seed safe — any feasible start reaches the same optimum.
func (c *Coordinator) admitJoins() []*vehicle {
	var added []*vehicle
	var cp Checkpoint
	cpLoaded, cpOK := false, false
	for {
		select {
		case j := <-c.joins:
			if _, dup := c.index[j.id]; dup {
				_ = j.link.Close()
				continue
			}
			v := c.newVehicle(j.id, j.link)
			if c.cfg.Journal != nil {
				if !cpLoaded {
					cp, cpOK, _ = c.cfg.Journal.Load()
					cpLoaded = true // one journal read per drain, not per join
				}
				if cpOK && cp.NumSections == c.cfg.NumSections {
					if saved, ok := cp.Schedule[j.id]; ok && len(saved) == c.cfg.NumSections {
						v.row = saved
					}
				}
			}
			c.insertSlot(v)
			c.epoch++ // quotes must reflect the newcomer's load
			c.count(&c.counts.Joined, c.cfg.Metrics.Joined)
			added = append(added, v)
		default:
			return added
		}
	}
}

// AddVehicle registers a new vehicle between episodes (a Coordinator
// may Run repeatedly as the fleet on the charging lane turns over).
// It must not be called while Run is executing — use Join for
// mid-iteration arrivals; the coordinator's fleet table is
// deliberately single-threaded, like the smart grid it models.
func (c *Coordinator) AddVehicle(id string, link v2i.Transport) error {
	if id == "" {
		return errors.New("sched: vehicle needs an ID")
	}
	if link == nil {
		return errors.New("sched: vehicle needs a transport")
	}
	if _, dup := c.index[id]; dup {
		return fmt.Errorf("sched: vehicle %q already registered", id)
	}
	c.insertSlot(c.newVehicle(id, link))
	c.epoch++
	return nil
}

// NumVehicles returns the currently registered fleet size. Like
// AddVehicle it is only meaningful between episodes.
func (c *Coordinator) NumVehicles() int { return len(c.slots) }

// ServeJoins accepts vehicle connections for as long as the listener
// is open, reading each Hello and queuing the vehicle to join the
// iteration mid-run. It blocks until Accept fails (close the server
// to stop it) and is the TCP counterpart of calling Join directly.
func ServeJoins(ctx context.Context, coord *Coordinator, srv *v2i.Server, helloTimeout time.Duration) error {
	if helloTimeout <= 0 {
		helloTimeout = 5 * time.Second
	}
	for {
		t, err := srv.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func(t v2i.Transport) {
			hctx, cancel := context.WithTimeout(ctx, helloTimeout)
			env, err := t.Recv(hctx)
			cancel()
			if err != nil {
				_ = t.Close()
				return
			}
			var hello v2i.Hello
			if err := v2i.Open(env, v2i.TypeHello, &hello); err != nil || hello.VehicleID == "" {
				_ = t.Close()
				return
			}
			if err := coord.Join(hello.VehicleID, t); err != nil {
				_ = t.Close()
			}
		}(t)
	}
}

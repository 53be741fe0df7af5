package load

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Step is one scripted fault: apply Action to lab node Node just
// before the AtRequest-th request (0-based) is issued. Steps key off
// the global issue counter, not wall-clock, so "kill node 1 at request
// 10" means the same thing on every host and at every load level.
//
// Owner replaces the fixed Node with "whichever node owns the
// AtRequest-th request's routing key" ("kill:owner@10" in compact
// form), resolved when the step fires. That is the step replication
// acceptance uses: kill the one node guaranteed to hold a point's
// cache entry and primary replica.
type Step struct {
	Action    string `json:"action"` // kill | restart | delay | reject | clear
	Node      int    `json:"node"`
	Owner     bool   `json:"owner,omitempty"`
	AtRequest uint64 `json:"at_request"`
	DelayMS   int    `json:"delay_ms,omitempty"` // delay action only
}

func (s Step) String() string {
	target := strconv.Itoa(s.Node)
	if s.Owner {
		target = "owner"
	}
	out := fmt.Sprintf("%s:%s@%d", s.Action, target, s.AtRequest)
	if s.Action == "delay" {
		out += ":" + strconv.Itoa(s.DelayMS) + "ms"
	}
	return out
}

// maxDelay bounds a delay step; no load run outlasts it.
const maxDelay = time.Hour

// validStep accepts exactly the steps String renders without loss.
func validStep(s Step) error {
	switch s.Action {
	case "kill", "restart", "reject", "clear":
		if s.DelayMS != 0 {
			return fmt.Errorf("load: chaos step %s takes no duration, got %dms (only delay does)", s, s.DelayMS)
		}
	case "delay":
		if s.DelayMS <= 0 || s.DelayMS > int(maxDelay/time.Millisecond) {
			return fmt.Errorf("load: delay step %s needs a duration in (0, %v]", s, maxDelay)
		}
	default:
		return fmt.Errorf("load: unknown chaos action %q (want kill, restart, delay, reject, or clear)", s.Action)
	}
	if s.Node < 0 {
		return fmt.Errorf("load: chaos step %s has negative node", s)
	}
	if s.Owner && s.Node != 0 {
		return fmt.Errorf("load: chaos step %s names both the owner and node %d", s, s.Node)
	}
	return nil
}

// ParseSchedule parses a fault schedule in the compact comma-separated
// form "kill:1@10,restart:1@40,delay:2@5:50ms" (action:node@request,
// with a trailing :duration for delay, and "owner" in place of the
// node for an owner-targeted step). The returned steps are sorted by
// AtRequest (stably, so same-request steps keep their written order).
func ParseSchedule(s string) ([]Step, error) {
	var steps []Step
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		step, err := parseCompactStep(part)
		if err != nil {
			return nil, err
		}
		if err := validStep(step); err != nil {
			return nil, err
		}
		steps = append(steps, step)
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].AtRequest < steps[j].AtRequest })
	return steps, nil
}

func parseCompactStep(part string) (Step, error) {
	action, rest, ok := strings.Cut(part, ":")
	if !ok {
		return Step{}, fmt.Errorf("load: bad chaos step %q (want action:node@request)", part)
	}
	nodeStr, rest, ok := strings.Cut(rest, "@")
	if !ok {
		return Step{}, fmt.Errorf("load: bad chaos step %q (want action:node@request)", part)
	}
	atStr, durStr, hasDur := strings.Cut(rest, ":")
	owner := nodeStr == "owner"
	node := 0
	if !owner {
		var err error
		node, err = strconv.Atoi(nodeStr)
		if err != nil {
			return Step{}, fmt.Errorf("load: bad node in chaos step %q: %v", part, err)
		}
	}
	at, err := strconv.ParseUint(atStr, 10, 64)
	if err != nil {
		return Step{}, fmt.Errorf("load: bad request index in chaos step %q: %v", part, err)
	}
	step := Step{Action: action, Node: node, Owner: owner, AtRequest: at}
	if hasDur {
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return Step{}, fmt.Errorf("load: bad duration in chaos step %q: %v", part, err)
		}
		step.DelayMS = int(d / time.Millisecond)
	}
	return step, nil
}

// Controller fires a schedule's steps against a lab as the run's
// issue counter passes each step's AtRequest. Safe for concurrent
// BeforeIssue calls from many client goroutines.
type Controller struct {
	lab   *Lab
	steps []Step
	// Probe, when set, runs after a successful restart so a membership
	// can re-admit the recovered node (failback).
	Probe func()
	// Resolver maps a request index to the lab node that owns that
	// request's routing key. Owner-targeted steps need it; Run wires
	// one from the traffic generator and the lab's member ring.
	Resolver func(at uint64) (int, error)

	mu    sync.Mutex
	next  int
	fired int
	errs  []string
}

// NewController validates the schedule against the lab's node count.
func NewController(lab *Lab, steps []Step) (*Controller, error) {
	for _, st := range steps {
		if err := validStep(st); err != nil {
			return nil, err
		}
		if !st.Owner && st.Node >= lab.Len() {
			return nil, fmt.Errorf("load: chaos step %s targets node %d but the lab has %d", st, st.Node, lab.Len())
		}
	}
	sorted := append([]Step(nil), steps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].AtRequest < sorted[j].AtRequest })
	return &Controller{lab: lab, steps: sorted}, nil
}

// BeforeIssue fires every not-yet-fired step whose AtRequest is at or
// below seq. Call it with the global issue counter before sending each
// request; nil controllers are no-ops so un-chaosed runs need no
// branching.
func (c *Controller) BeforeIssue(seq uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.next < len(c.steps) && c.steps[c.next].AtRequest <= seq {
		st := c.steps[c.next]
		c.next++
		c.fired++
		if err := c.apply(st); err != nil {
			c.errs = append(c.errs, err.Error())
		}
	}
}

func (c *Controller) apply(st Step) error {
	target := st.Node
	if st.Owner {
		if c.Resolver == nil {
			return fmt.Errorf("load: chaos step %s targets the owner but no resolver is wired", st)
		}
		var err error
		if target, err = c.Resolver(st.AtRequest); err != nil {
			return fmt.Errorf("load: resolving owner for chaos step %s: %w", st, err)
		}
	}
	node, err := c.lab.Node(target)
	if err != nil {
		return err
	}
	switch st.Action {
	case "kill":
		node.Kill()
	case "restart":
		if err := node.Restart(); err != nil {
			return err
		}
		if c.Probe != nil {
			c.Probe()
		}
	case "delay":
		node.Delay(time.Duration(st.DelayMS) * time.Millisecond)
	case "reject":
		node.Reject()
	case "clear":
		node.Clear()
	}
	return nil
}

// Fired reports how many steps have fired and any apply errors.
func (c *Controller) Fired() (int, []string) {
	if c == nil {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired, append([]string(nil), c.errs...)
}

// Live-driver fixture: core.Node.Deliver runs on the fabrics' read
// loops and on colocated clients' goroutines. A push into the control
// mailbox that can block parks a connection behind a slow Tick; the one
// with a default clause drops and counts instead.
package core

type liveFixture struct {
	mailbox chan int
	drops   int
}

func (n *liveFixture) deliverBlocking(env int) {
	n.mailbox <- env // want `bare channel send`
}

func (n *liveFixture) deliver(env int) {
	select {
	case n.mailbox <- env: // ok: a full mailbox takes the default
	default:
		n.drops++
	}
}

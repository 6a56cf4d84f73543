package resp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dataflasks"
	"dataflasks/internal/metrics"
)

// command describes one table entry. Arity follows the Redis
// convention: positive means exactly that many words (command
// included), negative -N means at least N words.
type command struct {
	name  string
	arity int
	// flags render in COMMAND replies ("write", "readonly", "fast").
	flags []string
	// handler decodes args (args[0] is the command word, already
	// validated against arity) and returns the reply to queue. It runs
	// on the reader goroutine: it must copy what it keeps (the arg
	// buffers are reused by the next command) and must not block on
	// backend completions — that is the reply's job.
	handler func(c *conn, args [][]byte) reply
}

// commandTable holds every supported command, keyed by lowercase name.
var commandTable map[string]*command

func init() {
	cmds := []*command{
		{name: "ping", arity: -1, flags: []string{"fast"}, handler: cmdPing},
		{name: "echo", arity: 2, flags: []string{"fast"}, handler: cmdEcho},
		{name: "set", arity: -3, flags: []string{"write"}, handler: cmdSet},
		{name: "get", arity: 2, flags: []string{"readonly", "fast"}, handler: cmdGet},
		{name: "del", arity: -2, flags: []string{"write"}, handler: cmdDel},
		{name: "exists", arity: -2, flags: []string{"readonly", "fast"}, handler: cmdExists},
		{name: "mset", arity: -3, flags: []string{"write"}, handler: cmdMSet},
		{name: "mget", arity: -2, flags: []string{"readonly", "fast"}, handler: cmdMGet},
		{name: "info", arity: -1, flags: []string{"readonly"}, handler: cmdInfo},
		{name: "command", arity: -1, flags: []string{"readonly"}, handler: cmdCommand},
		{name: "hello", arity: -1, flags: []string{"fast"}, handler: cmdHello},
		{name: "quit", arity: 1, flags: []string{"fast"}, handler: cmdQuit},
	}
	commandTable = make(map[string]*command, len(cmds))
	for _, cmd := range cmds {
		commandTable[cmd.name] = cmd
	}
}

// checkArity reports whether n words satisfy the command's arity.
func (cmd *command) checkArity(n int) bool {
	if cmd.arity < 0 {
		return n >= -cmd.arity
	}
	return n == cmd.arity
}

// dispatch resolves one decoded command and queues its reply. It runs
// on the reader goroutine.
func (c *conn) dispatch(args [][]byte) {
	start := time.Now()
	name := lowerWord(args[0])
	cmd, ok := commandTable[name]

	var stat *metrics.CommandStat
	if c.s.cfg.Stats != nil {
		if ok {
			stat = c.s.cfg.Stats.Stat(name)
		} else {
			stat = c.s.cfg.Stats.Stat("unknown")
		}
	}
	var rp reply
	switch {
	case !ok:
		msg := fmt.Sprintf("ERR unknown command '%s'", printableWord(args[0]))
		rp = errReply(msg)
	case !cmd.checkArity(len(args)):
		rp = errReply(fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd.name))
	default:
		rp = cmd.handler(c, args)
	}
	c.enqueue(pendingReply{write: rp, stat: stat, start: start})
}

// --- tiny reply constructors ------------------------------------------------

func errReply(msg string) reply {
	return func(w *Writer) (bool, error) { return true, w.Error(msg) }
}

func simpleReply(s string) reply {
	return func(w *Writer) (bool, error) { return false, w.Simple(s) }
}

func intReply(n int64) reply {
	return func(w *Writer) (bool, error) { return false, w.Int(n) }
}

// backendErr renders a failed backend op as a RESP error.
func backendErr(err error) string {
	if errors.Is(err, ErrServerClosed) {
		return "ERR server shutting down"
	}
	if errors.Is(err, dataflasks.ErrTimeout) {
		return "ERR cluster unavailable (operation timed out)"
	}
	return "ERR " + err.Error()
}

// --- handlers ---------------------------------------------------------------

func cmdPing(c *conn, args [][]byte) reply {
	switch len(args) {
	case 1:
		return simpleReply("PONG")
	case 2:
		msg := append([]byte(nil), args[1]...)
		return func(w *Writer) (bool, error) { return false, w.Bulk(msg) }
	default:
		return errReply("ERR wrong number of arguments for 'ping' command")
	}
}

func cmdEcho(c *conn, args [][]byte) reply {
	msg := append([]byte(nil), args[1]...)
	return func(w *Writer) (bool, error) { return false, w.Bulk(msg) }
}

// cmdSet stores the value under a fresh, strictly increasing version
// minted by the gateway — the upper-layer version-ordering contract of
// the paper (§III) — so plain Redis SET semantics (last writer wins)
// hold across connections. Redis SET options (EX/NX/...) are not
// supported and answer a syntax error rather than silently dropping
// durability expectations.
func cmdSet(c *conn, args [][]byte) reply {
	if len(args) > 3 {
		return errReply("ERR syntax error") // SET options are unsupported
	}
	key := string(args[1])
	value := append([]byte(nil), args[2]...)
	op := c.s.backend.PutAsync(key, c.s.cfg.Version(), value)
	return func(w *Writer) (bool, error) {
		if err := c.waitOp(w, op); err != nil {
			return true, w.Error(backendErr(err))
		}
		return false, w.Simple("OK")
	}
}

// cmdGet maps GET onto a newest-version read. A missing key has no
// authoritative negative in an epidemic store: the miss is reported
// after the configured read attempt budget (Config.GetTimeout ×
// (GetRetries+1)) as the RESP null bulk.
func cmdGet(c *conn, args [][]byte) reply {
	op := c.getLatest(string(args[1]))
	return func(w *Writer) (bool, error) {
		if err := c.waitOp(w, op); err != nil {
			if errors.Is(err, dataflasks.ErrNotFound) {
				return false, w.Null()
			}
			return true, w.Error(backendErr(err))
		}
		return false, w.Bulk(op.Value())
	}
}

// getLatest issues one bounded newest-version read.
func (c *conn) getLatest(key string) *dataflasks.Op {
	return c.s.backend.GetLatestAsync(key,
		dataflasks.WithTimeout(c.s.cfg.GetTimeout),
		dataflasks.WithRetries(c.s.cfg.GetRetries))
}

// cmdDel removes every named key — every stored version, matching
// Redis DEL — through the batched delete wire path: keys are grouped
// per target slice, each group is ONE DeleteBatchRequest applied by
// replicas in a single pass. The integer reply is how many keys
// existed on the acking replicas — Redis DEL's removed-count, seen
// through the most complete replica.
func cmdDel(c *conn, args [][]byte) reply {
	items := make([]dataflasks.KeyVersion, 0, len(args)-1)
	for _, a := range args[1:] {
		items = append(items, dataflasks.KeyVersion{Key: string(a), Version: dataflasks.AllVersions})
	}
	ops := c.s.backend.DeleteBatchAsync(items)
	return func(w *Writer) (bool, error) {
		removed := 0
		for i, op := range ops {
			if err := c.waitOp(w, op); err != nil {
				cancelOps(ops[i+1:])
				return true, w.Error(backendErr(err))
			}
			removed += op.Applied()
		}
		return false, w.Int(int64(removed))
	}
}

// cancelOps abandons sibling futures after an early error reply, so
// they do not linger in the client's pending table burning their retry
// budget against the cluster (the pending-op-leak class the blocking
// wrappers also guard against).
func cancelOps(ops []*dataflasks.Op) {
	for _, op := range ops {
		op.Cancel()
	}
}

// cmdExists counts keys that resolve to a value. Missing keys cost the
// read attempt budget each, though the probes for all keys overlap.
func cmdExists(c *conn, args [][]byte) reply {
	ops := make([]*dataflasks.Op, 0, len(args)-1)
	for _, a := range args[1:] {
		ops = append(ops, c.getLatest(string(a)))
	}
	return func(w *Writer) (bool, error) {
		found := int64(0)
		for _, op := range ops {
			err := c.waitOp(w, op)
			switch {
			case err == nil:
				found++
			case errors.Is(err, dataflasks.ErrNotFound):
				// absent: counts zero
			default:
				return true, w.Error(backendErr(err))
			}
		}
		return false, w.Int(found)
	}
}

// cmdMSet writes every pair through the PutBatch wire path: objects
// are grouped per target slice, each group ONE PutBatchRequest landing
// on every replica as a single store.PutBatch append.
func cmdMSet(c *conn, args [][]byte) reply {
	if len(args)%2 != 1 {
		return errReply("ERR wrong number of arguments for 'mset' command")
	}
	// One fresh version per pair, in argument order: a key bound twice
	// in the same MSET resolves to its LAST value (Redis semantics) —
	// a shared version would make the second put an idempotent no-op.
	objs := make([]dataflasks.Object, 0, (len(args)-1)/2)
	for i := 1; i < len(args); i += 2 {
		objs = append(objs, dataflasks.Object{
			Key:     string(args[i]),
			Version: c.s.cfg.Version(),
			Value:   append([]byte(nil), args[i+1]...),
		})
	}
	ops := c.s.backend.PutBatchAsync(objs)
	return func(w *Writer) (bool, error) {
		for i, op := range ops {
			if err := c.waitOp(w, op); err != nil {
				cancelOps(ops[i+1:])
				return true, w.Error(backendErr(err))
			}
		}
		return false, w.Simple("OK")
	}
}

// cmdMGet overlaps one newest-version read per key and replies with
// the values in key order (null for misses), like Redis MGET.
func cmdMGet(c *conn, args [][]byte) reply {
	ops := make([]*dataflasks.Op, 0, len(args)-1)
	for _, a := range args[1:] {
		ops = append(ops, c.getLatest(string(a)))
	}
	return func(w *Writer) (bool, error) {
		sawErr := false
		if err := w.Array(len(ops)); err != nil {
			return false, err
		}
		for _, op := range ops {
			err := c.waitOp(w, op)
			switch {
			case err == nil:
				if werr := w.Bulk(op.Value()); werr != nil {
					return sawErr, werr
				}
			case errors.Is(err, dataflasks.ErrNotFound):
				if werr := w.Null(); werr != nil {
					return sawErr, werr
				}
			default:
				// The array header is committed, so a failed read must
				// still fill its slot; a null keeps the frame
				// well-formed and the command is counted as errored.
				sawErr = true
				if werr := w.Null(); werr != nil {
					return sawErr, werr
				}
			}
		}
		return sawErr, nil
	}
}

// cmdInfo reports gateway state in the sectioned key:value format
// Redis clients and dashboards parse, including the per-command
// counters and latency quantiles (DBSIZE-style observability — an
// epidemic client cannot see a global keyspace count, so the gateway
// reports its own traffic instead).
func cmdInfo(c *conn, args [][]byte) reply {
	return func(w *Writer) (bool, error) {
		var b strings.Builder
		fmt.Fprintf(&b, "# Server\r\n")
		fmt.Fprintf(&b, "server:dataflasks-resp-gateway\r\n")
		fmt.Fprintf(&b, "resp_protocol:2\r\n")
		fmt.Fprintf(&b, "tcp_port:%s\r\n", portOf(c.s.Addr()))
		fmt.Fprintf(&b, "# Clients\r\n")
		fmt.Fprintf(&b, "connected_clients:%d\r\n", c.s.Conns())
		fmt.Fprintf(&b, "# Stats\r\n")
		fmt.Fprintf(&b, "pending_backend_ops:%d\r\n", c.s.backend.Pending())
		// The gateway is a long-lived client: how it picks contact nodes
		// says whether its commands enter their slice directly.
		dir := c.s.backend.DirectoryStats()
		fmt.Fprintf(&b, "directory_hits:%d\r\n", dir.Hits)
		fmt.Fprintf(&b, "directory_fallbacks:%d\r\n", dir.Fallbacks)
		fmt.Fprintf(&b, "directory_evictions:%d\r\n", dir.Evictions)
		fmt.Fprintf(&b, "directory_local:%d\r\n", dir.Local)
		if stats := c.s.cfg.Stats; stats != nil {
			calls, errs := stats.Totals()
			fmt.Fprintf(&b, "total_commands_processed:%d\r\n", calls)
			fmt.Fprintf(&b, "total_error_replies:%d\r\n", errs)
			fmt.Fprintf(&b, "latency_p50_usec:%d\r\n", stats.Quantile(0.50).Microseconds())
			fmt.Fprintf(&b, "latency_p99_usec:%d\r\n", stats.Quantile(0.99).Microseconds())
			fmt.Fprintf(&b, "# Commandstats\r\n")
			for _, name := range stats.Names() {
				st := stats.Stat(name)
				fmt.Fprintf(&b, "cmdstat_%s:calls=%d,errors=%d,mean_usec=%d,p99_usec=%d\r\n",
					name, st.Calls.Load(), st.Errors.Load(),
					st.Latency.Mean().Microseconds(), st.Latency.Quantile(0.99).Microseconds())
			}
		}
		return false, w.BulkString(b.String())
	}
}

// cmdCommand answers the introspection forms clients call on connect.
func cmdCommand(c *conn, args [][]byte) reply {
	if len(args) == 1 {
		return commandListReply()
	}
	switch lowerWord(args[1]) {
	case "count":
		return intReply(int64(len(commandTable)))
	case "docs":
		// RESP2 renders the docs map as a flat array; empty is valid
		// and keeps redis-cli quiet.
		return func(w *Writer) (bool, error) { return false, w.Array(0) }
	case "info":
		names := make([]string, 0, len(args)-2)
		for _, a := range args[2:] {
			names = append(names, lowerWord(a))
		}
		return func(w *Writer) (bool, error) {
			if err := w.Array(len(names)); err != nil {
				return false, err
			}
			for _, name := range names {
				cmd, ok := commandTable[name]
				if !ok {
					if err := w.Null(); err != nil {
						return false, err
					}
					continue
				}
				if err := writeCommandInfo(w, cmd); err != nil {
					return false, err
				}
			}
			return false, nil
		}
	default:
		return commandListReply()
	}
}

func commandListReply() reply {
	return func(w *Writer) (bool, error) {
		if err := w.Array(len(commandTable)); err != nil {
			return false, err
		}
		for _, name := range commandNames() {
			if err := writeCommandInfo(w, commandTable[name]); err != nil {
				return false, err
			}
		}
		return false, nil
	}
}

// commandNames returns the table keys in stable order so COMMAND
// replies are deterministic (the conformance suite diffs bytes).
func commandNames() []string {
	names := make([]string, 0, len(commandTable))
	for name := range commandTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// writeCommandInfo renders one COMMAND entry in the classic 6-element
// shape: name, arity, flags, first key, last key, key step.
func writeCommandInfo(w *Writer, cmd *command) error {
	if err := w.Array(6); err != nil {
		return err
	}
	if err := w.BulkString(cmd.name); err != nil {
		return err
	}
	if err := w.Int(int64(cmd.arity)); err != nil {
		return err
	}
	if err := w.Array(len(cmd.flags)); err != nil {
		return err
	}
	for _, f := range cmd.flags {
		if err := w.BulkString(f); err != nil {
			return err
		}
	}
	first, last, step := keySpec(cmd)
	if err := w.Int(int64(first)); err != nil {
		return err
	}
	if err := w.Int(int64(last)); err != nil {
		return err
	}
	return w.Int(int64(step))
}

// keySpec returns the (first, last, step) key positions of a command.
func keySpec(cmd *command) (int, int, int) {
	switch cmd.name {
	case "get", "set":
		return 1, 1, 1
	case "del", "exists", "mget":
		return 1, -1, 1
	case "mset":
		return 1, -1, 2
	default:
		return 0, 0, 0
	}
}

// cmdHello negotiates the protocol: only RESP2 is spoken. The reply is
// the RESP2 (flat array) rendering of the handshake map, enough for
// redis-cli and client libraries to proceed.
func cmdHello(c *conn, args [][]byte) reply {
	if len(args) > 1 && string(args[1]) != "2" {
		return errReply("NOPROTO unsupported protocol version")
	}
	if len(args) > 2 {
		// HELLO options (AUTH user pass, SETNAME ...) must not be
		// silently swallowed: a client that sent credentials would
		// proceed believing they were validated.
		return errReply(fmt.Sprintf("ERR unsupported HELLO option '%s'", printableWord(args[2])))
	}
	return func(w *Writer) (bool, error) {
		fields := []struct{ k, v string }{
			{"server", "dataflasks-resp-gateway"},
			{"version", "1.0.0"},
			{"mode", "cluster"},
			{"role", "master"},
		}
		if err := w.Array(len(fields)*2 + 2); err != nil {
			return false, err
		}
		for _, f := range fields {
			if err := w.BulkString(f.k); err != nil {
				return false, err
			}
			if err := w.BulkString(f.v); err != nil {
				return false, err
			}
		}
		if err := w.BulkString("proto"); err != nil {
			return false, err
		}
		return false, w.Int(2)
	}
}

func cmdQuit(c *conn, args [][]byte) reply {
	c.quit = true
	return simpleReply("OK")
}

// --- small helpers ----------------------------------------------------------

// lowerWord lowercases a short command word without allocating for the
// common already-lowercase case.
func lowerWord(b []byte) string {
	hasUpper := false
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return string(b)
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// printableWord truncates and sanitizes an unknown command word for an
// error message.
func printableWord(b []byte) string {
	const max = 64
	if len(b) > max {
		b = b[:max]
	}
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c < 0x20 || c >= 0x7f {
			out = append(out, '?')
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

// portOf extracts the port of "host:port" ("" when unknown).
func portOf(addr string) string {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return ""
	}
	return addr[i+1:]
}

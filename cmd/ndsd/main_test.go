package main

import (
	"bufio"
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nds/internal/ndsclient"
	"nds/internal/proto"
)

// TestPushdownDisabledDaemon runs the real binary: a daemon started with
// -pushdown=false models firmware without the feature, so the scan/reduce
// opcodes must complete with unsupported_opcode (the capability probe a host
// relies on) while plain I/O keeps working on the same server, and SIGTERM
// must still drain it to a clean exit 0.
func TestPushdownDisabledDaemon(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ndsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sock := filepath.Join(dir, "nds.sock")

	// The deadline kills a daemon that wedges, which closes its stderr and
	// unblocks everything below.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-unix", sock, "-pushdown=false", "-quiet")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() { // ends at the daemon's exit (stderr EOF); drained below before Wait
		defer close(lines)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	var log []string
	listening := false
	for line := range lines {
		log = append(log, line)
		if strings.Contains(line, "listening on unix") {
			listening = true
			break
		}
	}
	if !listening {
		cmd.Wait()
		t.Fatalf("daemon exited before listening:\n%s", strings.Join(log, "\n"))
	}

	probe := func() {
		c, err := ndsclient.Dial("unix:" + sock)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer c.Close()
		// The opcode is not in this firmware's dispatch table: rejected
		// before the payload is even decoded, so no view is needed.
		if _, err := c.Scan(12345, []int64{0}, []int64{1}, 0, ^uint64(0), 0, 0); !ndsclient.IsStatus(err, proto.StatusUnsupportedOp) {
			t.Errorf("pushdown_scan on disabled server: want unsupported_opcode, got %v", err)
		}
		if _, err := c.Reduce(12345, []int64{0}, []int64{1}, proto.ReduceOpSum, 0, nil); !ndsclient.IsStatus(err, proto.StatusUnsupportedOp) {
			t.Errorf("pushdown_reduce on disabled server: want unsupported_opcode, got %v", err)
		}
		// Plain I/O is unaffected by the capability gate.
		_, view, err := c.CreateSpace(8, []int64{16, 16})
		if err != nil {
			t.Errorf("create_space: %v", err)
			return
		}
		data := make([]byte, 16*16*8)
		for i := range data {
			data[i] = byte(i)
		}
		if err := c.Write(view, []int64{0, 0}, []int64{16, 16}, data); err != nil {
			t.Errorf("nds_write: %v", err)
			return
		}
		got, err := c.Read(view, []int64{0, 0}, []int64{16, 16})
		if err != nil {
			t.Errorf("nds_read: %v", err)
		} else if !bytes.Equal(got, data) {
			t.Error("nds_read: payload mismatch on pushdown-disabled server")
		}
	}
	probe()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		log = append(log, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not drain to exit 0: %v\n%s", err, strings.Join(log, "\n"))
	}
}

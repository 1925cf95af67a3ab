package crashtest

import (
	"errors"
	"strings"
	"testing"

	"potgo/internal/lincheck"
)

// TestRunClusterSmoke: the CI-shaped campaign must fire whole-node kills,
// fail over, and pass all three verification layers at every point.
func TestRunClusterSmoke(t *testing.T) {
	opt := Default(Cluster)
	res, err := Run(opt)
	sum, _ := res.(ClusterSummary)
	if err != nil {
		t.Fatalf("cluster campaign failed: %v\nsummary: %+v", err, sum)
	}
	// Every point but the unarmed baseline either fires or drains.
	if sum.Fired+sum.Completed != opt.Points-1 {
		t.Fatalf("points %d - 1 != fired %d + completed %d", opt.Points, sum.Fired, sum.Completed)
	}
	if sum.Fired < 3 {
		t.Fatalf("only %d armed kill points fired, want >= 3 (span %d): %+v", sum.Fired, sum.Span, sum)
	}
	if sum.AckedOps == 0 {
		t.Fatal("campaign acknowledged no writes")
	}
	if sum.Span == 0 {
		t.Fatal("baseline measured no event span")
	}
}

// TestRunClusterSplitBrainMutationCaught: with the stale-epoch fence
// disabled and two primaries acknowledging writes for one key, the
// verifier must reject the merged history.
func TestRunClusterSplitBrainMutationCaught(t *testing.T) {
	opt := Default(Cluster)
	opt.Mutation = SplitBrain
	_, err := Run(opt)
	if err == nil {
		t.Fatal("split-brain history slipped past the cluster verifier")
	}
	if !strings.Contains(err.Error(), "split brain") {
		t.Fatalf("verifier rejected for the wrong reason: %v", err)
	}
}

// TestRunClusterOptionValidation: the campaign needs a quorum-surviving
// member count.
func TestRunClusterOptionValidation(t *testing.T) {
	opt := Default(Cluster)
	opt.Nodes = 2
	if _, err := Run(opt); err == nil {
		t.Fatal("2-node campaign accepted; quorum cannot survive a death")
	}
}

// TestRunClusterAckBeforeQuorumMutationCaught: with every coordinator
// answering a burst's writes before they are replicated, a kill loses
// acknowledged writes and the verifier must say so.
func TestRunClusterAckBeforeQuorumMutationCaught(t *testing.T) {
	opt := Default(Cluster)
	opt.Mutation = AckBeforeQuorum
	_, err := Run(opt)
	if err == nil {
		t.Fatal("unreplicated acks slipped past the cluster verifier")
	}
	if !strings.Contains(err.Error(), "missing from every surviving log") {
		t.Fatalf("verifier rejected for the wrong reason: %v", err)
	}
}

// TestClusterMismatchNamesTrail: a read that disagrees with the merged-log
// model carries the key's trail; an error that names no key is left as it
// is.
func TestClusterMismatchNamesTrail(t *testing.T) {
	entries := []lincheck.ClusterEntry{
		{Origin: 0, Node: 1, Seq: 1, EntryEpoch: 1, SenderEpoch: 1, NodeEpoch: 1, Key: 5, Val: 50},
		{Origin: 0, Node: 1, Seq: 2, EntryEpoch: 1, SenderEpoch: 1, NodeEpoch: 1, Key: 6, Val: 60},
	}
	writes := []lincheck.ClusterWrite{{Key: 5, UID: 50, Call: 1, Ret: 2}}
	stale := func(k uint64) (uint64, bool, error) { return 0, false, nil } // a replica that lost key 5
	err := withTrail(checkKeys("node 2 local replica", stale, lincheck.ReplayCluster(entries), 6), writes, entries)
	msg := err.Error()
	for _, want := range []string{
		"node 2 local replica: key 5 reads (0,false), the model says (50,true)",
		"trail of key 5",
		"node 1 applied origin 0 seq 1, epochs 1/1/1: put 50",
		"acked put 50, call 1 ret 2",
		"merged (e1,s1) origin 0: put 50",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("report lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "put 60") {
		t.Fatalf("trail of key 5 shows another key's entry:\n%s", msg)
	}
	plain := errors.New("sync: refused")
	if got := withTrail(plain, writes, entries); got != plain {
		t.Fatalf("keyless error rewritten to %v", got)
	}
}

//! Every sealed document torn in both of its generations is a format
//! error that names what the document is, whichever crate owns it.

use std::path::{Path, PathBuf};

use full_lock::attacks::{AttackCheckpoint, AttackError};
use full_lock::harness::service::ShardedQueue;
use full_lock::harness::sweep::{SweepGrid, SweepPlan};
use full_lock::harness::{CampaignManifest, HarnessError, JobSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fulllock-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Cuts the primary and its previous generation in half.
fn tear_both(path: &Path) {
    let previous = PathBuf::from(format!("{}.1", path.display()));
    for file in [path, previous.as_path()] {
        let text = std::fs::read_to_string(file).expect("generation exists");
        std::fs::write(file, &text[..text.len() / 2]).expect("tear");
    }
}

fn assert_format_error(err: &HarnessError, kind: &str) {
    assert!(
        matches!(err, HarnessError::ManifestFormat { .. }),
        "{kind}: expected a format error, got {err}"
    );
    assert!(err.to_string().contains(kind), "{err}");
}

#[test]
fn torn_in_both_generations_is_a_format_error_naming_its_kind() {
    let dir = scratch("docs");

    let manifest = dir.join("campaign.json");
    for name in ["one", "two"] {
        CampaignManifest::new(name).save(&manifest).expect("save");
    }
    tear_both(&manifest);
    let err = CampaignManifest::load(&manifest).expect_err("torn manifest");
    assert_format_error(&err, "campaign manifest");

    let checkpoint = dir.join("attack.ckpt");
    for iterations in [1, 2] {
        let mut cp = AttackCheckpoint::new("sat", 4, 3);
        cp.iterations = iterations;
        cp.save(&checkpoint).expect("save");
    }
    tear_both(&checkpoint);
    let err = AttackCheckpoint::load(&checkpoint).expect_err("torn checkpoint");
    assert!(
        matches!(err, AttackError::CheckpointFormat { .. }),
        "checkpoint: expected a format error, got {err}"
    );
    assert!(err.to_string().contains("checkpoint"), "{err}");

    let queue = dir.join("queue");
    let mut q = ShardedQueue::open(&queue, 1).expect("open");
    for id in ["a", "b"] {
        q.submit("t", JobSpec::new(id, "/bin/true"))
            .expect("submit");
    }
    tear_both(&queue.join("shard-00.json"));
    let err = ShardedQueue::open(&queue, 1).expect_err("torn shard");
    assert_format_error(&err, "queue shard");

    let sweep = dir.join("sweep");
    std::fs::create_dir_all(&sweep).expect("sweep dir");
    let plan = SweepPlan::new(SweepGrid::new("g").axis("seed", ["0", "1"]));
    for ambient in [1, 2] {
        plan.save(&sweep, ambient).expect("save");
    }
    tear_both(&sweep.join("sweep.json"));
    let err = SweepPlan::load(&sweep).expect_err("torn sweep plan");
    assert_format_error(&err, "sweep plan");

    std::fs::remove_dir_all(&dir).ok();
}

//! Every on-disk and on-wire document, written from one fixed value and
//! compared byte for byte with the bytes an earlier build wrote. A codec
//! rewrite that changes one byte of any format fails here.

use std::path::{Path, PathBuf};
use std::time::Duration;

use full_lock::attacks::sps::SpsReport;
use full_lock::attacks::{
    AttackCheckpoint, AttackDetails, AttackOutcome, AttackReport, FormalVerdict, IoPair,
    KeyCertificate, RunResilience,
};
use full_lock::bench::record::{Bar, BenchRecord, Cmp};
use full_lock::harness::json::Json;
use full_lock::harness::service::protocol::{encode_request, Request};
use full_lock::harness::service::{JobState, ShardedQueue};
use full_lock::harness::sweep::results::settle;
use full_lock::harness::sweep::{Lease, SampleRecord, SweepGrid, SweepPlan};
use full_lock::harness::{CampaignManifest, CampaignPlan, JobRecord, JobSpec, JobStatus};
use full_lock::locking::Key;
use full_lock::sat::cdcl::SolverStats;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fulllock-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn spec() -> JobSpec {
    JobSpec::new("j1", "/bin/sh")
        .arg("-c")
        .arg("echo \"hi\"\t{job_dir}")
        .env("K", "v")
        .timeout_secs(1.5)
        .max_attempts(3)
}

fn solver() -> SolverStats {
    let mut stats = SolverStats {
        decisions: 10,
        propagations: 200,
        conflicts: 7,
        restarts: 1,
        inprocessings: 2,
        inprocess_ns: 5_000,
        ..SolverStats::default()
    };
    stats.lbd_histogram[2] = 4;
    stats
}

fn checkpoint(dir: &Path) -> String {
    let mut cp = AttackCheckpoint::new("double-dip", 4, 3);
    cp.phase = 2;
    cp.iterations = 7;
    cp.cleanup_iterations = 1;
    cp.candidate_key = Some(Key::from_bits([true, false, true]));
    cp.ratio_sum = 13.625;
    cp.ratio_samples = 7;
    cp.elapsed = Duration::from_millis(1250);
    cp.oracle_queries = 9;
    cp.solver = solver();
    cp.io_pairs = vec![
        IoPair::new(vec![true, false, false, true], vec![false, true]),
        IoPair {
            inputs: vec![false, false, true, true],
            outputs: vec![true, true],
            votes: 3,
            quarantined: true,
        },
    ];
    let path = dir.join("attack.ckpt");
    cp.save(&path).expect("save checkpoint");
    read(&path)
}

fn manifest(dir: &Path) -> String {
    let mut m = CampaignManifest::new("paper");
    let mut a = JobRecord::new("table2_cln_sat", 0xdead_beef);
    a.status = JobStatus::Failed;
    a.attempts = 2;
    a.exit_code = Some(-1);
    a.signal = Some(9);
    a.duration_secs = 12.5;
    a.peak_rss_kb = Some(40_960);
    a.stdout_log = Some("logs/a.stdout.log".to_string());
    a.stderr_log = Some("logs/a.stderr.log".to_string());
    a.last_error = Some("killed by signal 9".to_string());
    m.upsert(a);
    m.upsert(JobRecord::new("pending", 7));
    m.push_event("table2_cln_sat", 1, "running");
    m.push_event("table2_cln_sat", 2, "failed");
    let path = dir.join("campaign.json");
    m.save(&path).expect("save manifest");
    read(&path)
}

fn queue_shard(dir: &Path) -> String {
    let mut queue = ShardedQueue::open(dir, 1).expect("open queue");
    queue.submit("acme", spec()).expect("submit");
    queue
        .submit("acme", JobSpec::new("j2", "/bin/true"))
        .expect("submit");
    let job = queue.job_mut("j2").expect("j2 queued");
    job.state = JobState::Failed;
    job.attempts = 2;
    job.last_error = Some("exit status 3".to_string());
    job.charged_conflicts = 42;
    job.charged_wall_secs = 0.25;
    job.interrupted = true;
    queue.save_shard_of("j2").expect("save shard");
    read(&dir.join("shard-00.json"))
}

fn sweep_plan(dir: &Path) -> String {
    let mut plan = SweepPlan::new(
        SweepGrid::new("mini")
            .axis("vars", ["50", "100"])
            .axis("seed", ["0"]),
    );
    plan.unit_timeout_secs = 5.0;
    plan.seed = 7;
    std::fs::create_dir_all(dir).expect("create sweep dir");
    plan.save(dir, 0xfeed).expect("save sweep plan");
    read(&dir.join("sweep.json"))
}

fn result_file(dir: &Path) -> String {
    let record = SampleRecord {
        unit: "unit-00001".to_string(),
        worker: "w0".to_string(),
        stolen: true,
        speculative: false,
        verdict: "unsat".to_string(),
        conflicts: 123,
        vars: 50,
        clauses: 215,
        clause_var_ratio: 4.3,
        wall_secs: 0.125,
    };
    settle(dir, &record, 0).expect("settle sample");
    read(&dir.join("results").join("unit-00001.json"))
}

fn wire_reports() -> String {
    let full = AttackReport {
        attack: "sat",
        outcome: AttackOutcome::KeyRecovered {
            key: Key::from_bits([true, false, true, true]),
            verified: true,
        },
        iterations: 12,
        elapsed: Duration::from_millis(3375),
        oracle_queries: 14,
        solver: solver(),
        resilience: RunResilience {
            resumed_from: Some(5),
            checkpoints_written: 7,
            checkpoint_failures: 0,
            oracle_retries: 3,
            oracle_requeries: 2,
            quarantined_pairs: 1,
        },
        key_certificate: Some(KeyCertificate {
            samples: 512,
            mismatches: 0,
            formal: FormalVerdict::Unavailable("cyclic netlist".to_string()),
        }),
        details: AttackDetails::Wire(Json::Object(vec![(
            "type".to_string(),
            Json::Str("sat".to_string()),
        )])),
    };
    let bare = AttackReport {
        attack: "sps",
        outcome: AttackOutcome::Defeated {
            reason: "no skewed wire".to_string(),
        },
        iterations: 0,
        elapsed: Duration::ZERO,
        oracle_queries: 0,
        solver: SolverStats::default(),
        resilience: RunResilience::default(),
        key_certificate: None,
        details: AttackDetails::Sps(SpsReport {
            suspect: None,
            skew: 0.25,
            error_rate: None,
        }),
    };
    format!("{}\n{}", full.to_json(), bare.to_json())
}

fn bench_record(dir: &Path) -> String {
    let record = BenchRecord {
        workload: "golden".to_string(),
        host_cores: 2,
        commit: None,
        metrics: vec![
            ("speedup".to_string(), Json::Float(3.25)),
            ("outcome".to_string(), Json::Str("ok".to_string())),
        ],
        bars: vec![Bar {
            metric: "speedup".to_string(),
            cmp: Cmp::Ge,
            bound: Json::Float(2.0),
        }],
    };
    let path = dir.join("BENCH_golden.json");
    record.finish(&path);
    read(&path)
}

/// Every document's bytes, by name.
fn documents() -> Vec<(&'static str, String)> {
    let dir = scratch("docs");
    let lease = Lease {
        unit: "unit-00001".to_string(),
        worker: "w0".to_string(),
        nonce: 0x0123_4567_89ab_cdef,
        generation: 1,
        acquired_millis: 1_700_000_000_000,
        expires_millis: 1_700_000_030_000,
    };
    let docs = vec![
        ("checkpoint", checkpoint(&dir)),
        ("manifest", manifest(&dir)),
        (
            "campaign plan",
            CampaignPlan::new("pin")
                .job(spec())
                .job(JobSpec::new("j2", "/bin/true"))
                .to_json(),
        ),
        (
            "submit line",
            encode_request(&Request::Submit {
                tenant: "acme".to_string(),
                job: spec(),
            }),
        ),
        ("queue shard", queue_shard(&dir.join("queue"))),
        ("sweep plan", sweep_plan(&dir.join("sweep"))),
        ("lease", lease.to_json()),
        ("result file", result_file(&dir.join("sweep"))),
        ("wire report", wire_reports()),
        ("bench record", bench_record(&dir)),
    ];
    std::fs::remove_dir_all(&dir).ok();
    docs
}

/// The bytes of [`documents`] as the codecs wrote them before they were
/// rebuilt on the typed field readers, less the three worker fields that
/// checkpoints and wire reports do not write ([`LEGACY_CHECKPOINT`] and
/// [`LEGACY_WIRE_REPORTS`] hold the bytes with them).
const GOLDEN: &[(&str, &str)] = &[
    (
        "checkpoint",
        "{\"checksum\":13368644892926847972,\"payload\":{\"version\":1,\"attack\":\"double-dip\",\"data_bits\":4,\"key_bits\":3,\"phase\":2,\"iterations\":7,\"cleanup_iterations\":1,\"candidate_key\":\"101\",\"ratio_sum\":13.625,\"ratio_samples\":7,\"elapsed_secs\":1.25,\"oracle_queries\":9,\"solver\":{\"decisions\":10,\"propagations\":200,\"conflicts\":7,\"restarts\":1,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,4,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":2,\"inprocess_ns\":5000,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"io_pairs\":[{\"x\":\"1001\",\"y\":\"01\",\"v\":1,\"q\":false},{\"x\":\"0011\",\"y\":\"11\",\"v\":3,\"q\":true}]}}\n",
    ),
    (
        "manifest",
        "{\"checksum\":4903058632614995520,\"payload\":{\"version\":1,\"plan_name\":\"paper\",\"jobs\":[{\"id\":\"table2_cln_sat\",\"config_hash\":3735928559,\"status\":\"failed\",\"attempts\":2,\"exit_code\":-1.0,\"signal\":9,\"duration_secs\":12.5,\"peak_rss_kb\":40960,\"stdout_log\":\"logs/a.stdout.log\",\"stderr_log\":\"logs/a.stderr.log\",\"last_error\":\"killed by signal 9\"},{\"id\":\"pending\",\"config_hash\":7,\"status\":\"pending\",\"attempts\":0,\"exit_code\":null,\"signal\":null,\"duration_secs\":0.0,\"peak_rss_kb\":null,\"stdout_log\":null,\"stderr_log\":null,\"last_error\":null}],\"events\":[{\"job\":\"table2_cln_sat\",\"attempt\":1,\"to\":\"running\"},{\"job\":\"table2_cln_sat\",\"attempt\":2,\"to\":\"failed\"}]}}\n",
    ),
    (
        "campaign plan",
        "{\"version\":1,\"name\":\"pin\",\"jobs\":[{\"id\":\"j1\",\"program\":\"/bin/sh\",\"args\":[\"-c\",\"echo \\\"hi\\\"\\t{job_dir}\"],\"env\":{\"K\":\"v\"},\"timeout_secs\":1.5,\"max_attempts\":3},{\"id\":\"j2\",\"program\":\"/bin/true\",\"args\":[],\"env\":{}}]}",
    ),
    (
        "submit line",
        "{\"verb\":\"submit\",\"tenant\":\"acme\",\"job\":{\"id\":\"j1\",\"program\":\"/bin/sh\",\"args\":[\"-c\",\"echo \\\"hi\\\"\\t{job_dir}\"],\"env\":{\"K\":\"v\"},\"timeout_secs\":1.5,\"max_attempts\":3}}",
    ),
    (
        "queue shard",
        "{\"checksum\":17996425607658752825,\"payload\":{\"version\":1,\"shard\":0,\"jobs\":[{\"id\":\"j1\",\"tenant\":\"acme\",\"spec\":{\"program\":\"/bin/sh\",\"args\":[\"-c\",\"echo \\\"hi\\\"\\t{job_dir}\"],\"env\":{\"K\":\"v\"},\"timeout_secs\":1.5,\"max_attempts\":3},\"state\":\"pending\",\"attempts\":0,\"seq\":0,\"completions\":0,\"last_error\":null,\"charged_conflicts\":0,\"charged_wall_secs\":0.0,\"interrupted\":false},{\"id\":\"j2\",\"tenant\":\"acme\",\"spec\":{\"program\":\"/bin/true\",\"args\":[],\"env\":{}},\"state\":\"failed\",\"attempts\":2,\"seq\":1,\"completions\":0,\"last_error\":\"exit status 3\",\"charged_conflicts\":42,\"charged_wall_secs\":0.25,\"interrupted\":true}]}}\n",
    ),
    (
        "sweep plan",
        "{\"checksum\":18269214679154895335,\"payload\":{\"version\":1,\"name\":\"mini\",\"executor\":\"sat\",\"unit_timeout_secs\":5.0,\"seed\":7,\"axes\":[{\"name\":\"vars\",\"values\":[\"50\",\"100\"]},{\"name\":\"seed\",\"values\":[\"0\"]}],\"config_hash\":6239327587602256367}}\n",
    ),
    (
        "lease",
        "{\"unit\":\"unit-00001\",\"worker\":\"w0\",\"nonce\":81985529216486895,\"generation\":1,\"acquired_millis\":1700000000000,\"expires_millis\":1700000030000}",
    ),
    (
        "result file",
        "{\"checksum\":16387296518660548864,\"payload\":{\"unit\":\"unit-00001\",\"worker\":\"w0\",\"stolen\":true,\"speculative\":false,\"verdict\":\"unsat\",\"conflicts\":123,\"vars\":50,\"clauses\":215,\"clause_var_ratio\":4.3,\"wall_secs\":0.125}}\n",
    ),
    (
        "wire report",
        "{\"schema_version\":1,\"attack\":\"sat\",\"outcome\":{\"kind\":\"key_recovered\",\"key\":\"1011\",\"verified\":true},\"iterations\":12,\"elapsed_secs\":3.375,\"oracle_queries\":14,\"solver\":{\"decisions\":10,\"propagations\":200,\"conflicts\":7,\"restarts\":1,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,4,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":2,\"inprocess_ns\":5000,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"resilience\":{\"resumed_from\":5,\"checkpoints_written\":7,\"checkpoint_failures\":0,\"oracle_retries\":3,\"oracle_requeries\":2,\"quarantined_pairs\":1},\"key_certificate\":{\"samples\":512,\"mismatches\":0,\"formal\":{\"unavailable\":\"cyclic netlist\"}},\"details\":{\"type\":\"sat\"}}\n{\"schema_version\":1,\"attack\":\"sps\",\"outcome\":{\"kind\":\"defeated\",\"reason\":\"no skewed wire\"},\"iterations\":0,\"elapsed_secs\":0.0,\"oracle_queries\":0,\"solver\":{\"decisions\":0,\"propagations\":0,\"conflicts\":0,\"restarts\":0,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,0,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":0,\"inprocess_ns\":0,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"resilience\":{\"resumed_from\":null,\"checkpoints_written\":0,\"checkpoint_failures\":0,\"oracle_retries\":0,\"oracle_requeries\":0,\"quarantined_pairs\":0},\"key_certificate\":null,\"details\":{\"type\":\"sps\",\"skew\":0.25,\"found_suspect\":false,\"error_rate\":null}}",
    ),
    (
        "bench record",
        "{\"workload\":\"golden\",\"host_cores\":2,\"commit\":null,\"metrics\":{\"speedup\":3.25,\"outcome\":\"ok\"},\"bars\":[{\"metric\":\"speedup\",\"cmp\":\">=\",\"bound\":2.0,\"pass\":true}],\"pass\":true}\n",
    ),
];

#[test]
fn every_document_keeps_its_bytes() {
    let docs = documents();
    assert_eq!(docs.len(), GOLDEN.len(), "one golden text per document");
    for ((name, bytes), (golden_name, golden)) in docs.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(bytes, golden, "{name} bytes changed");
    }
}

/// The checkpoint and wire documents as older builds wrote them, with
/// the worker fields `worker_panics`, `exchange_rejects` and
/// `worker_failures` (always 0 and `[]` on the one sequential solver).
const LEGACY_CHECKPOINT: &str =
    "{\"checksum\":6301994959609360387,\"payload\":{\"version\":1,\"attack\":\"double-dip\",\"data_bits\":4,\"key_bits\":3,\"phase\":2,\"iterations\":7,\"cleanup_iterations\":1,\"candidate_key\":\"101\",\"ratio_sum\":13.625,\"ratio_samples\":7,\"elapsed_secs\":1.25,\"oracle_queries\":9,\"solver\":{\"decisions\":10,\"propagations\":200,\"conflicts\":7,\"restarts\":1,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,4,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"worker_panics\":0,\"exchange_rejects\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":2,\"inprocess_ns\":5000,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"io_pairs\":[{\"x\":\"1001\",\"y\":\"01\",\"v\":1,\"q\":false},{\"x\":\"0011\",\"y\":\"11\",\"v\":3,\"q\":true}]}}\n";
const LEGACY_WIRE_REPORTS: &str =
    "{\"schema_version\":1,\"attack\":\"sat\",\"outcome\":{\"kind\":\"key_recovered\",\"key\":\"1011\",\"verified\":true},\"iterations\":12,\"elapsed_secs\":3.375,\"oracle_queries\":14,\"solver\":{\"decisions\":10,\"propagations\":200,\"conflicts\":7,\"restarts\":1,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,4,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"worker_panics\":0,\"exchange_rejects\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":2,\"inprocess_ns\":5000,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"resilience\":{\"worker_panics\":1,\"worker_failures\":[\"worker 0 panicked\"],\"resumed_from\":5,\"checkpoints_written\":7,\"checkpoint_failures\":0,\"oracle_retries\":3,\"oracle_requeries\":2,\"quarantined_pairs\":1},\"key_certificate\":{\"samples\":512,\"mismatches\":0,\"formal\":{\"unavailable\":\"cyclic netlist\"}},\"details\":{\"type\":\"sat\"}}\n{\"schema_version\":1,\"attack\":\"sps\",\"outcome\":{\"kind\":\"defeated\",\"reason\":\"no skewed wire\"},\"iterations\":0,\"elapsed_secs\":0.0,\"oracle_queries\":0,\"solver\":{\"decisions\":0,\"propagations\":0,\"conflicts\":0,\"restarts\":0,\"deleted_learnts\":0,\"minimized_literals\":0,\"reductions\":0,\"lbd_histogram\":[0,0,0,0,0,0,0,0],\"propagate_ns\":0,\"analyze_ns\":0,\"worker_panics\":0,\"exchange_rejects\":0,\"certified_models\":0,\"solves\":0,\"learnts_carried\":0,\"inprocessings\":0,\"inprocess_ns\":0,\"vars_eliminated\":0,\"clauses_subsumed\":0,\"clauses_strengthened\":0,\"vivification_shrinks\":0},\"resilience\":{\"worker_panics\":0,\"worker_failures\":[],\"resumed_from\":null,\"checkpoints_written\":0,\"checkpoint_failures\":0,\"oracle_retries\":0,\"oracle_requeries\":0,\"quarantined_pairs\":0},\"key_certificate\":null,\"details\":{\"type\":\"sps\",\"skew\":0.25,\"found_suspect\":false,\"error_rate\":null}}";

fn golden(name: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(golden_name, _)| *golden_name == name)
        .unwrap_or_else(|| panic!("no golden text for {name}"))
        .1
}

/// A document written before the worker fields were dropped still
/// loads, and writing it again gives today's bytes.
#[test]
fn legacy_documents_rewrite_to_current_bytes() {
    let dir = scratch("legacy");
    let old = dir.join("old.ckpt");
    std::fs::write(&old, LEGACY_CHECKPOINT).expect("write legacy checkpoint");
    let checkpoint = AttackCheckpoint::load(&old).expect("legacy checkpoint loads");
    let new = dir.join("new.ckpt");
    checkpoint.save(&new).expect("save checkpoint");
    assert_eq!(read(&new), golden("checkpoint"));
    std::fs::remove_dir_all(&dir).ok();

    let rewritten: Vec<String> = LEGACY_WIRE_REPORTS
        .split('\n')
        .map(|line| {
            AttackReport::from_json(line)
                .expect("legacy report parses")
                .to_json()
        })
        .collect();
    assert_eq!(rewritten.join("\n"), golden("wire report"));
}

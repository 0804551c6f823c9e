//! Every `BENCH_*.json` guard record at the repository root is a
//! `BenchRecord`: workload, host cores, commit, metrics and bars, with
//! every stored verdict the one its metrics give.

use full_lock::bench::record::BenchRecord;

#[test]
fn every_bench_json_is_a_judged_bench_record() {
    let mut records = 0;
    for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read record");
        let record = BenchRecord::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!record.bars.is_empty(), "{name} states no bar");
        records += 1;
    }
    assert_eq!(records, 6, "one record per guard");
}

//! Reference digests of each workload's virtual-time output, recorded per
//! (workload, seed) from the simulator this benchmark was written against
//! (`refs/digests.tsv`). Regenerate a line with
//! `perfbench --workload <w> --seed <n> --digest`.

/// The recorded digest of `workload` at `seed`, if one was recorded.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../refs/digests.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let mut f = l.split('\t');
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d, 16).expect("digests are hex"))
        })
}

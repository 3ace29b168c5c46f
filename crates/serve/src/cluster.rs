//! Consistent-hash cluster serving over the persist keyspace.
//!
//! A cluster is `N` `nvm-llcd` shards plus (optionally) thin routers,
//! all the same server: `--peers` lists every shard in shard-id order,
//! and `--shard-id` makes a node a shard; without it the node routes
//! ([`ClusterConfig`]). Every participant builds the same
//! [`ShardMap`]: a consistent-hash
//! ring of [`VNODES`] virtual points per shard over the 64-bit fold of
//! the 128-bit content-addressed keyspace
//! ([`nvm_llc_store::Key::ring_point`]). A request's owner is the shard
//! whose ring point follows the request's
//! [routing key](nvm_llc_sim::persist::request_key) — derived from the
//! request line alone, so a router needs no simulator state and two
//! nodes never disagree.
//!
//! Forwarding is **single-hop** by construction: any forwarded request
//! carries the [`HOP_HEADER`], and a shard that receives a marked
//! request always evaluates locally instead of proxying again. Combined
//! with the local fallback (a shard that cannot reach the owner
//! evaluates the request itself, and the location-independent persist
//! keys make the answer byte-identical wherever it is computed), a
//! valid key is never 404'd and no request loops.

use std::fmt::Write as _;

use nvm_llc_store::Key;

/// Virtual ring points per shard. 64 points keeps the keyspace split
/// within a few percent of even for small clusters while the whole ring
/// stays a sub-kilobyte sorted array.
pub const VNODES: usize = 64;

/// Header marking a request that has already been forwarded once; the
/// receiving shard must evaluate locally, never proxy again.
pub const HOP_HEADER: &str = "x-nvmllc-hop";

/// The consistent-hash ring: identical on every node of a cluster.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shard_count: usize,
    /// `(ring point, shard id)`, sorted by point.
    points: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds the ring for `shard_count` shards (>= 1).
    pub fn new(shard_count: usize) -> ShardMap {
        let shard_count = shard_count.max(1);
        let mut points = Vec::with_capacity(shard_count * VNODES);
        for shard in 0..shard_count {
            for replica in 0..VNODES {
                // The vnode identity is digested like any other content
                // key, so ring placement is process-independent.
                let identity = format!("vnode|{shard}|{replica}");
                points.push((Key::digest(identity.as_bytes()).ring_point(), shard as u32));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(p, _)| *p);
        ShardMap {
            shard_count,
            points,
        }
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning `key`: the first ring point at or after the
    /// key's fold, wrapping at the top.
    pub fn owner(&self, key: &Key) -> usize {
        let point = key.ring_point();
        let idx = self.points.partition_point(|&(p, _)| p < point);
        let (_, shard) = self.points[idx % self.points.len()];
        shard as usize
    }

    /// The shard map as a JSON object for `/statsz`: shard count, vnode
    /// count, and the fraction of a large key sample each shard owns.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"shard_count\":{},\"vnodes_per_shard\":{VNODES},\"ring_points\":{}",
            self.shard_count,
            self.points.len(),
        );
        // Ownership share of the ring itself (arc lengths), exact and
        // cheap — no sampling.
        let mut arcs = vec![0u128; self.shard_count];
        for (i, &(point, shard)) in self.points.iter().enumerate() {
            let prev = if i == 0 {
                // The wrap-around arc from the last point.
                let (last, _) = self.points[self.points.len() - 1];
                point.wrapping_sub(last)
            } else {
                point - self.points[i - 1].0
            };
            arcs[shard as usize] += u128::from(prev);
        }
        out.push_str(",\"ownership\":[");
        for (i, arc) in arcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let share = *arc as f64 / 2f64.powi(64);
            let _ = write!(out, "{share:.4}");
        }
        out.push_str("]}");
        out
    }
}

/// Cluster membership for one `nvm-llcd`: a shard when `shard_id` is
/// set, a thin router when it is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// This node's shard id in `0..peers.len()`; `None` runs a router
    /// that forwards everything and evaluates nothing.
    pub shard_id: Option<usize>,
    /// Every shard's address, indexed by shard id; the shard count is
    /// `peers.len()`. A shard's own entry is its public address and is
    /// never dialed.
    pub peers: Vec<String>,
}

impl ClusterConfig {
    /// Checks that there is a ring and that the shard id is on it.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.is_empty() {
            return Err("--peers names no shards".into());
        }
        match self.shard_id {
            Some(id) if id >= self.peers.len() => Err(format!(
                "--shard-id {id} out of range for {} peers",
                self.peers.len()
            )),
            _ => Ok(()),
        }
    }
}

/// Parses a comma-separated `--peers` list.
pub fn parse_peers(raw: &str) -> Result<Vec<String>, String> {
    let peers: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect();
    if peers.is_empty() {
        return Err("--peers wants a comma-separated list of host:port".into());
    }
    Ok(peers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_llc_sim::persist::request_key;

    #[test]
    fn every_node_builds_the_same_ring() {
        let a = ShardMap::new(3);
        let b = ShardMap::new(3);
        for w in ["tonto", "x264", "milc", "leela", "ua", "lu"] {
            let key = request_key(
                "fixed_capacity",
                w,
                None,
                20_000,
                nvm_llc_sim::PolicyKind::Lru,
            );
            assert_eq!(a.owner(&key), b.owner(&key), "{w}");
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let map = ShardMap::new(3);
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            let key = Key::digest(format!("sample-{i}").as_bytes());
            counts[map.owner(&key)] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (500..=1600).contains(&n),
                "shard {shard} owns {n} of 3000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        for i in 0..64 {
            assert_eq!(map.owner(&Key::digest(&[i])), 0);
        }
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_fraction_of_keys() {
        // The consistent-hashing property: going 3 -> 4 shards should
        // remap roughly 1/4 of the keyspace, not reshuffle all of it.
        let three = ShardMap::new(3);
        let four = ShardMap::new(4);
        let total = 4000;
        let moved = (0..total)
            .filter(|i| {
                let key = Key::digest(format!("sample-{i}").as_bytes());
                three.owner(&key) != four.owner(&key)
            })
            .count();
        assert!(
            moved < total / 2,
            "expected ~25% of keys to move, got {moved}/{total}"
        );
        assert!(moved > 0, "adding a shard must take over some keys");
    }

    #[test]
    fn shard_map_json_reports_full_coverage() {
        let json = ShardMap::new(3).render_json();
        assert!(json.starts_with("{\"shard_count\":3"), "{json}");
        assert!(json.contains("\"ownership\":["), "{json}");
    }

    #[test]
    fn router_args_parse_and_reject_junk() {
        // A router is a `ServeConfig` with `--peers` and no `--shard-id`.
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let c = crate::ServeConfig::parse_args(&s(&[
            "--addr",
            "0.0.0.0:0",
            "--peers",
            "a:1, b:2 ,,c:3",
            "--workers",
            "2",
            "--trace-slow-ms",
            "250",
        ]))
        .unwrap();
        let cluster = c.cluster.expect("router mode");
        assert_eq!(cluster.shard_id, None);
        assert_eq!(cluster.peers, vec!["a:1", "b:2", "c:3"]);
        assert_eq!(c.addr, "0.0.0.0:0");
        assert_eq!(c.workers, 2);
        assert_eq!(c.trace_slow_ms, Some(250));
        let parse = |v: &[&str]| crate::ServeConfig::parse_args(&s(v));
        assert!(parse(&[]).unwrap().cluster.is_none(), "no peers: a node");
        assert!(parse(&["--peers", ""]).is_err());
        assert!(parse(&["--peers", " , "]).is_err());
        assert!(parse(&["--peers", "a:1", "--nope"]).is_err());
    }

    #[test]
    fn cluster_config_validates() {
        let good = ClusterConfig {
            shard_id: Some(1),
            peers: vec!["a:1".into(), "b:2".into(), "c:3".into()],
        };
        assert!(good.validate().is_ok());
        let router = ClusterConfig {
            shard_id: None,
            ..good.clone()
        };
        assert!(router.validate().is_ok(), "no shard id: a router");
        let mut bad = good.clone();
        bad.shard_id = Some(3);
        assert!(bad.validate().is_err(), "id out of range");
        let mut bad = router;
        bad.peers.clear();
        assert!(bad.validate().is_err(), "no peers");
    }
}

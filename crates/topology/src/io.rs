//! JSON persistence for topology snapshots.
//!
//! Serialization via `serde` preserves structure, capacities, latencies
//! and the current conditions (load averages and link utilizations).
//! Deserialization goes through [`from_json`], which rebuilds the derived
//! name index and **validates** the graph: serde alone would accept
//! inconsistent adjacency or negative capacities from a hand-edited file.

use crate::{NodeId, Topology};

/// Errors from loading a topology.
#[derive(Debug)]
pub enum IoError {
    /// The JSON could not be parsed into a topology.
    Parse(serde_json::Error),
    /// The parsed topology violates a structural invariant.
    Invalid(String),
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Parse(e) => write!(f, "topology JSON parse error: {e}"),
            IoError::Invalid(msg) => write!(f, "invalid topology: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Serializes a topology (structure + current conditions) to pretty JSON.
pub fn to_json(topo: &Topology) -> String {
    serde_json::to_string_pretty(topo).expect("topology serialization cannot fail")
}

/// Parses and validates a topology from JSON.
pub fn from_json(json: &str) -> Result<Topology, IoError> {
    let mut topo: Topology = serde_json::from_str(json).map_err(IoError::Parse)?;
    topo.rebuild_name_index();
    validate(&topo)?;
    Ok(topo)
}

/// Checks structural invariants of a (possibly hand-edited) topology.
pub fn validate(topo: &Topology) -> Result<(), IoError> {
    use std::collections::HashSet;
    let mut names = HashSet::new();
    for id in topo.node_ids() {
        let n = topo.node(id);
        if !names.insert(n.name().to_string()) {
            return Err(IoError::Invalid(format!(
                "duplicate node name {:?}",
                n.name()
            )));
        }
        if n.is_compute() && !(n.speed() > 0.0 && n.speed().is_finite()) {
            return Err(IoError::Invalid(format!(
                "compute node {:?} has non-positive speed {}",
                n.name(),
                n.speed()
            )));
        }
        if !(n.load_avg() >= 0.0 && n.load_avg().is_finite()) {
            return Err(IoError::Invalid(format!(
                "node {:?} has invalid load average {}",
                n.name(),
                n.load_avg()
            )));
        }
    }
    for e in topo.edge_ids() {
        let l = topo.link(e);
        let (a, b) = (l.a(), l.b());
        if a == b {
            return Err(IoError::Invalid(format!("link {e:?} is a self-loop")));
        }
        for n in [a, b] {
            if n.index() >= topo.node_count() {
                return Err(IoError::Invalid(format!(
                    "link {e:?} references missing node {n:?}"
                )));
            }
        }
        for dir in [crate::Direction::AtoB, crate::Direction::BtoA] {
            // Zero is legal: an administratively-down link carries no
            // traffic but remains part of the structure.
            let cap = l.capacity(dir);
            if !(cap >= 0.0 && cap.is_finite()) {
                return Err(IoError::Invalid(format!(
                    "link {e:?} has negative or non-finite capacity {cap}"
                )));
            }
            let used = l.used(dir);
            if !(used >= 0.0 && used.is_finite()) {
                return Err(IoError::Invalid(format!(
                    "link {e:?} has invalid utilization {used}"
                )));
            }
        }
        if !(l.latency() >= 0.0 && l.latency().is_finite()) {
            return Err(IoError::Invalid(format!(
                "link {e:?} has invalid latency {}",
                l.latency()
            )));
        }
        // Adjacency consistency: both endpoints must list this edge.
        for n in [a, b] {
            if !topo.neighbors(n).iter().any(|&(edge, _)| edge == e) {
                return Err(IoError::Invalid(format!(
                    "adjacency of node {n:?} does not list link {e:?}"
                )));
            }
        }
    }
    // Every adjacency entry must reference a real edge with the node as an
    // endpoint.
    for id in topo.node_ids() {
        for &(e, other) in topo.neighbors(id) {
            if e.index() >= topo.link_count() {
                return Err(IoError::Invalid(format!(
                    "adjacency of {id:?} references missing link {e:?}"
                )));
            }
            let l = topo.link(e);
            if !l.touches(id) || l.opposite(id) != other {
                return Err(IoError::Invalid(format!(
                    "adjacency of {id:?} is inconsistent with link {e:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Looks up several nodes by name, preserving order.
pub fn nodes_by_name(topo: &Topology, names: &[&str]) -> Result<Vec<NodeId>, IoError> {
    names
        .iter()
        .map(|n| {
            topo.node_by_name(n)
                .map_err(|e| IoError::Invalid(e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::dumbbell;
    use crate::testbeds::cmu_testbed;
    use crate::units::MBPS;
    use crate::Direction;

    #[test]
    fn round_trip_preserves_everything() {
        let (mut t, ids) = dumbbell(3, 100.0 * MBPS, 10.0 * MBPS);
        t.set_load_avg(ids[0], 1.5);
        let e = t.edge_ids().next().unwrap();
        t.set_link_used(e, Direction::AtoB, 4.0 * MBPS);
        let json = to_json(&t);
        let back = from_json(&json).unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.link_count(), t.link_count());
        assert_eq!(back.node(ids[0]).load_avg(), 1.5);
        assert_eq!(back.link(e).used(Direction::AtoB), 4.0 * MBPS);
        // Name index works after reload.
        assert_eq!(back.node_by_name("l0").unwrap(), ids[0]);
        // Routing works on the reloaded graph.
        let r = back.routes();
        assert_eq!(r.bottleneck_bw(ids[0], ids[3]).unwrap(), 6.0 * MBPS);
    }

    #[test]
    fn testbed_round_trips() {
        let tb = cmu_testbed();
        let json = to_json(&tb.topo);
        let back = from_json(&json).unwrap();
        assert_eq!(back.compute_node_count(), 18);
        assert!(validate(&back).is_ok());
    }

    #[test]
    fn garbage_json_is_a_parse_error() {
        assert!(matches!(from_json("{nope"), Err(IoError::Parse(_))));
    }

    #[test]
    fn corrupted_fields_are_rejected() {
        let (t, _) = dumbbell(2, 100.0 * MBPS, 10.0 * MBPS);
        let json = to_json(&t);
        // Negative capacity.
        let bad = json.replacen("10000000.0", "-5.0", 1);
        assert!(matches!(from_json(&bad), Err(IoError::Invalid(_))));
        // Negative load average.
        let bad = json.replacen("\"load_avg\": 0.0", "\"load_avg\": -1.0", 1);
        assert!(matches!(from_json(&bad), Err(IoError::Invalid(_))));
    }

    #[test]
    fn zero_capacity_links_are_valid() {
        // Administratively-down links (capacity 0) must round-trip: they
        // are real structure, just currently carrying nothing.
        let mut t = Topology::new();
        let a = t.add_compute_node("a", 1.0);
        let b = t.add_compute_node("b", 1.0);
        let e = t.add_link(a, b, 0.0);
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(back.link(e).capacity(Direction::AtoB), 0.0);
        assert_eq!(back.link(e).bwfactor(), 0.0);
    }

    #[test]
    fn a_leftover_domains_section_is_ignored() {
        // Files written before the per-node `domains` array left the
        // format still carry it; it loads as the same topology without it.
        let (t, _) = dumbbell(2, 100.0 * MBPS, 10.0 * MBPS);
        let json = to_json(&t);
        let mut doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        doc["domains"] = serde_json::json!(vec![0u16; t.node_count()]);
        // `from_json` validates what it loads.
        let old = from_json(&doc.to_string()).unwrap();
        assert_eq!(to_json(&old), json);
    }

    #[test]
    fn nodes_by_name_helper() {
        let tb = cmu_testbed();
        let ids = nodes_by_name(&tb.topo, &["m-1", "m-7", "gibraltar"]).unwrap();
        assert_eq!(ids[0], tb.m(1));
        assert_eq!(ids[2], tb.gibraltar);
        assert!(nodes_by_name(&tb.topo, &["nope"]).is_err());
    }
}

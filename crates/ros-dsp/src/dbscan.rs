//! DBSCAN density-based clustering (Ester et al. 1996).
//!
//! §6 of the paper: *"RoS applies the classical density-based
//! clustering algorithm, i.e., DBSCAN, to cluster the points. It
//! calculates the point density of each cluster and keeps those with
//! density larger than a predefined threshold."*
//!
//! This implementation clusters 2-D points (the merged, ego-motion
//! compensated point cloud projected on the road plane) with the
//! textbook ε / minPts semantics: core points expand clusters,
//! border points join them, everything else is noise.

use ros_em::units::cast::AsF64;
use ros_obs::names;

/// DBSCAN parameters.
#[derive(Clone, Copy, Debug)]
pub struct DbscanParams {
    /// Neighbourhood radius ε \[same units as the points\].
    pub eps: f64,
    /// Minimum neighbours (incl. self) for a core point.
    pub min_pts: usize,
}

impl Default for DbscanParams {
    fn default() -> Self {
        DbscanParams {
            eps: 0.3,
            min_pts: 4,
        }
    }
}

/// Cluster assignment for one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of cluster `id` (0-based).
    Cluster(usize),
}

/// Runs DBSCAN on 2-D points. Returns per-point labels and the number
/// of clusters found.
///
/// Complexity is O(n²) distance checks — fine for the few hundred
/// points a merged radar point cloud contains.
pub fn dbscan(points: &[[f64; 2]], params: &DbscanParams) -> (Vec<Label>, usize) {
    let _span = ros_obs::span(names::TIME_DSP_DBSCAN);
    let n = points.len();
    let mut labels = vec![Option::<Label>::None; n];
    let mut cluster_id = 0usize;
    let eps2 = params.eps * params.eps;

    // Corrupted returns (NaN/∞ coordinates) are labelled noise up
    // front and excluded from every neighbourhood. Without the guard a
    // NaN coordinate silently fails both `<=` comparisons — isolated
    // by accident, not by design — and an ∞ one would poison centroid
    // sums if it ever joined a cluster.
    let finite = |i: usize| points[i][0].is_finite() && points[i][1].is_finite();

    let neighbours = |i: usize| -> Vec<usize> {
        (0..n)
            .filter(|&j| {
                if !finite(j) {
                    return false;
                }
                let dx = points[i][0] - points[j][0];
                let dy = points[i][1] - points[j][1];
                dx * dx + dy * dy <= eps2
            })
            .collect()
    };

    for i in 0..n {
        if labels[i].is_some() {
            continue;
        }
        if !finite(i) {
            labels[i] = Some(Label::Noise);
            continue;
        }
        let nb = neighbours(i);
        if nb.len() < params.min_pts {
            labels[i] = Some(Label::Noise);
            continue;
        }
        // i is a core point: start a new cluster and expand it.
        let id = cluster_id;
        cluster_id += 1;
        labels[i] = Some(Label::Cluster(id));
        let mut queue: Vec<usize> = nb;
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            match labels[j] {
                Some(Label::Noise) => {
                    // Noise promoted to border point.
                    labels[j] = Some(Label::Cluster(id));
                }
                None => {
                    labels[j] = Some(Label::Cluster(id));
                    let nb_j = neighbours(j);
                    if nb_j.len() >= params.min_pts {
                        queue.extend(nb_j);
                    }
                }
                Some(Label::Cluster(_)) => {}
            }
        }
    }

    let labels: Vec<Label> = labels
        .into_iter()
        .map(|l| l.unwrap_or(Label::Noise))
        .collect();
    if ros_obs::enabled() {
        let noise = labels.iter().filter(|l| **l == Label::Noise).count();
        ros_obs::count(names::DSP_DBSCAN_RUNS, 1);
        ros_obs::count(names::DSP_DBSCAN_CLUSTERS, cluster_id);
        ros_obs::count(names::DSP_DBSCAN_NOISE_POINTS, noise);
        ros_obs::event(
            "dbscan",
            &[
                ("points", n.into()),
                ("clusters", cluster_id.into()),
                ("noise", noise.into()),
            ],
        );
    }
    (labels, cluster_id)
}

/// Summary of one DBSCAN cluster, as used by the tag detector (§6):
/// centroid ("center of gravity"), point count, and spatial extent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSummary {
    /// Cluster id.
    pub id: usize,
    /// Number of member points.
    pub count: usize,
    /// Centroid x.
    pub cx: f64,
    /// Centroid y.
    pub cy: f64,
    /// Area of the axis-aligned bounding box \[units²\] — the paper's
    /// "point cloud size" feature (Fig. 13b).
    pub bbox_area: f64,
    /// RMS distance of members from the centroid \[units\].
    pub rms_radius: f64,
}

/// Summarizes clusters from a labelled point set.
pub fn summarize_clusters(points: &[[f64; 2]], labels: &[Label]) -> Vec<ClusterSummary> {
    assert_eq!(points.len(), labels.len());
    let n_clusters = labels
        .iter()
        .filter_map(|l| match l {
            Label::Cluster(id) => Some(id + 1),
            Label::Noise => None,
        })
        .max()
        .unwrap_or(0);

    let mut out = Vec::with_capacity(n_clusters);
    for id in 0..n_clusters {
        let members: Vec<&[f64; 2]> = points
            .iter()
            .zip(labels)
            .filter(|(_, l)| **l == Label::Cluster(id))
            .map(|(p, _)| p)
            .collect();
        if members.is_empty() {
            continue;
        }
        let count = members.len();
        let cx = members.iter().map(|p| p[0]).sum::<f64>() / count.as_f64();
        let cy = members.iter().map(|p| p[1]).sum::<f64>() / count.as_f64();
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        let mut rms = 0.0;
        for p in &members {
            xmin = xmin.min(p[0]);
            xmax = xmax.max(p[0]);
            ymin = ymin.min(p[1]);
            ymax = ymax.max(p[1]);
            rms += (p[0] - cx).powi(2) + (p[1] - cy).powi(2);
        }
        out.push(ClusterSummary {
            id,
            count,
            cx,
            cy,
            bbox_area: (xmax - xmin) * (ymax - ymin),
            rms_radius: (rms / count.as_f64()).sqrt(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<[f64; 2]> {
        // Deterministic pseudo-random blob.
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399963; // golden angle
                let r = spread * ((i % 7) as f64 / 7.0);
                [cx + r * a.cos(), cy + r * a.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(0.0, 0.0, 20, 0.2);
        pts.extend(blob(5.0, 5.0, 20, 0.2));
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(n, 2);
        // All first-blob points share a label distinct from the second's.
        let first = labels[0];
        assert!(labels[..20].iter().all(|&l| l == first));
        let second = labels[20];
        assert!(labels[20..].iter().all(|&l| l == second));
        assert_ne!(first, second);
    }

    #[test]
    fn isolated_points_are_noise() {
        let pts = vec![[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]];
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 1.0,
                min_pts: 3,
            },
        );
        assert_eq!(n, 0);
        assert!(labels.iter().all(|&l| l == Label::Noise));
    }

    #[test]
    fn noise_between_blobs_stays_noise() {
        let mut pts = blob(0.0, 0.0, 15, 0.2);
        pts.push([2.5, 2.5]); // lone point between blobs
        pts.extend(blob(5.0, 5.0, 15, 0.2));
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(n, 2);
        assert_eq!(labels[15], Label::Noise);
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let pts = vec![[0.0, 0.0], [100.0, 0.0]];
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.1,
                min_pts: 1,
            },
        );
        assert_eq!(n, 2);
        assert!(labels.iter().all(|l| matches!(l, Label::Cluster(_))));
    }

    #[test]
    fn chain_connectivity_merges() {
        // A chain of points each within eps of the next forms one cluster.
        let pts: Vec<[f64; 2]> = (0..30).map(|i| [i as f64 * 0.2, 0.0]).collect();
        let (_, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.25,
                min_pts: 2,
            },
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn nonfinite_points_are_noise_and_never_cluster() {
        // A dense blob plus corrupted returns: NaN, ∞, mixed. The blob
        // must still cluster; every corrupted point must be noise.
        let mut pts = blob(0.0, 0.0, 20, 0.2);
        pts.push([f64::NAN, 0.0]);
        pts.push([0.0, f64::INFINITY]);
        pts.push([f64::NAN, f64::NAN]);
        pts.push([f64::NEG_INFINITY, f64::NAN]);
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(n, 1);
        assert!(labels[..20].iter().all(|l| matches!(l, Label::Cluster(0))));
        assert!(labels[20..].iter().all(|&l| l == Label::Noise));
        // And the cluster summary stays finite.
        let sums = summarize_clusters(&pts, &labels);
        assert_eq!(sums.len(), 1);
        assert!(sums[0].cx.is_finite() && sums[0].cy.is_finite());
        assert!(sums[0].bbox_area.is_finite() && sums[0].rms_radius.is_finite());
    }

    #[test]
    fn all_nonfinite_input_is_all_noise() {
        let pts = vec![[f64::NAN, f64::NAN]; 12];
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 10.0,
                min_pts: 1,
            },
        );
        assert_eq!(n, 0);
        assert!(labels.iter().all(|&l| l == Label::Noise));
    }

    #[test]
    fn empty_input() {
        let (labels, n) = dbscan(&[], &DbscanParams::default());
        assert!(labels.is_empty());
        assert_eq!(n, 0);
    }

    #[test]
    fn summaries_of_empty_input_are_empty() {
        assert!(summarize_clusters(&[], &[]).is_empty());
    }

    #[test]
    fn summaries_report_geometry() {
        let mut pts = blob(1.0, 2.0, 25, 0.3);
        pts.extend(blob(8.0, -1.0, 10, 0.1));
        let (labels, n) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.5,
                min_pts: 3,
            },
        );
        assert_eq!(n, 2);
        let sums = summarize_clusters(&pts, &labels);
        assert_eq!(sums.len(), 2);
        let big = sums.iter().find(|s| s.count == 25).unwrap();
        assert!((big.cx - 1.0).abs() < 0.2);
        assert!((big.cy - 2.0).abs() < 0.2);
        let small = sums.iter().find(|s| s.count == 10).unwrap();
        assert!(small.bbox_area < big.bbox_area);
        assert!(small.rms_radius < big.rms_radius);
    }

    #[test]
    fn summaries_skip_noise() {
        let pts = vec![[0.0, 0.0], [50.0, 50.0]];
        let (labels, _) = dbscan(
            &pts,
            &DbscanParams {
                eps: 0.1,
                min_pts: 2,
            },
        );
        let sums = summarize_clusters(&pts, &labels);
        assert!(sums.is_empty());
    }
}

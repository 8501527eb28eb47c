//! Tag detection: the §6 multi-frame pipeline.
//!
//! 1. Per-frame radar point clouds are merged in the world frame using
//!    the vehicle's believed poses.
//! 2. DBSCAN groups the merged points; sparse clusters are dropped.
//! 3. Each cluster is scored with the paper's two discriminative
//!    features:
//!    * **polarization RSS loss** — RSS with the native (co-pol) Tx
//!      minus RSS with the switched Tx. Clutter loses its median
//!      16–19 dB; the tag only ≈13 dB (it *gains* cross-pol energy
//!      from retroreflection while its co-pol return is specular and
//!      strong near broadside) — Fig. 13a;
//!    * **point-cloud size** — the tag's bounding box is far smaller
//!      than poles, signs, or trees — Fig. 13b.
//! 4. The cluster passing both thresholds is declared the tag and its
//!    centre of gravity becomes the decode spotlight position.

use ros_dsp::dbscan::{dbscan, summarize_clusters, ClusterSummary, DbscanParams};
use ros_em::Vec3;
use ros_obs::names;
use ros_radar::pointcloud::PointCloud;

/// Feature vector of one candidate cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterFeatures {
    /// Cluster centroid (world) \[m\].
    pub center: Vec3,
    /// Member point count.
    pub n_points: usize,
    /// Robust cluster area \[m²\]: `π·rms_radius²` (Fig. 13b's "object
    /// size"; RMS-based so stray far points don't inflate it).
    pub size_m2: f64,
    /// Median RSS with the polarization-switched Tx \[dBm\].
    pub rss_switched_dbm: f64,
    /// Median RSS with the native Tx \[dBm\].
    pub rss_native_dbm: f64,
}

impl ClusterFeatures {
    /// The polarization RSS loss feature \[dB\] (native − switched).
    pub fn rss_loss_db(&self) -> f64 {
        self.rss_native_dbm - self.rss_switched_dbm
    }
}

/// Detector thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// DBSCAN parameters on the merged world-frame cloud.
    pub dbscan: DbscanParams,
    /// Minimum cluster population to consider (density filter, §6).
    pub min_points: usize,
    /// Maximum robust cluster area for a tag candidate \[m²\].
    pub max_tag_area_m2: f64,
    /// Maximum polarization RSS loss for a tag candidate \[dB\]
    /// (clutter sits at 16–19 dB, the tag at ≈13 dB).
    pub max_rss_loss_db: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            dbscan: DbscanParams {
                eps: 0.35,
                min_pts: 4,
            },
            min_points: 6,
            max_tag_area_m2: 0.08,
            max_rss_loss_db: 15.0,
        }
    }
}

/// A scored cluster.
#[derive(Clone, Copy, Debug)]
pub struct ScoredCluster {
    /// Geometry summary.
    pub summary: ClusterSummary,
    /// Feature vector.
    pub features: ClusterFeatures,
    /// Whether the detector classifies it as a RoS tag.
    pub is_tag: bool,
}

/// Clusters a merged point cloud into geometric summaries plus each
/// cluster's member point indices into the cloud (for per-point RSS
/// statistics).
pub(crate) fn cluster_members(
    cloud: &PointCloud,
    cfg: &DetectorConfig,
) -> Vec<(ClusterSummary, Vec<usize>)> {
    let xy = cloud.xy();
    let (labels, _) = dbscan(&xy, &cfg.dbscan);
    summarize_clusters(&xy, &labels)
        .into_iter()
        .filter(|s| s.count >= cfg.min_points)
        .map(|s| {
            let members: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter(|(_, l)| **l == ros_dsp::dbscan::Label::Cluster(s.id))
                .map(|(i, _)| i)
                .collect();
            (s, members)
        })
        .collect()
}

/// Clusters a merged point cloud and scores every cluster.
///
/// `rss_probe` supplies, for a cluster (by member indices, centre, and
/// the centres of every *other* cluster), the pair of median RSS
/// values `(native_dbm, switched_dbm)`: native from the cluster's own
/// detected point powers, switched by spotlighting the centre across
/// the pass — skipping frames where another cluster shares the same
/// range–azimuth cell.
pub fn score_clusters<F>(
    cloud: &PointCloud,
    cfg: &DetectorConfig,
    mut rss_probe: F,
) -> Vec<ScoredCluster>
where
    F: FnMut(&[usize], Vec3, &[Vec3]) -> (f64, f64),
{
    let _span = ros_obs::span(names::TIME_DETECTOR_SCORE);
    let with_members = cluster_members(cloud, cfg);
    let centers: Vec<Vec3> = with_members
        .iter()
        .map(|(s, _)| Vec3::new(s.cx, s.cy, 0.0))
        .collect();

    with_members
        .into_iter()
        .enumerate()
        .map(|(i, (s, members))| {
            let center = centers[i];
            let others: Vec<Vec3> = centers
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| *c)
                .collect();
            let (native, switched) = rss_probe(&members, center, &others);
            let features = ClusterFeatures {
                center,
                n_points: s.count,
                size_m2: std::f64::consts::PI * s.rms_radius * s.rms_radius,
                rss_switched_dbm: switched,
                rss_native_dbm: native,
            };
            let is_tag = features.size_m2 <= cfg.max_tag_area_m2
                && features.rss_loss_db() <= cfg.max_rss_loss_db;
            ros_obs::count(names::DETECTOR_CLUSTERS_SCORED, 1);
            if is_tag {
                ros_obs::count(names::DETECTOR_TAGS_CLASSIFIED, 1);
            }
            ros_obs::event_detail(
                "detector.cluster",
                &[
                    ("cx", center.x.into()),
                    ("cy", center.y.into()),
                    ("n", s.count.into()),
                    ("size_m2", features.size_m2.into()),
                    ("loss_db", features.rss_loss_db().into()),
                    ("native_dbm", features.rss_native_dbm.into()),
                    ("is_tag", is_tag.into()),
                ],
            );
            ScoredCluster {
                summary: s,
                features,
                is_tag,
            }
        })
        .collect()
}

/// Picks the best tag candidate (smallest RSS loss among `is_tag`
/// clusters), if any, and returns its index in `clusters`.
pub fn pick_tag(clusters: &[ScoredCluster]) -> Option<usize> {
    let best = clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_tag)
        .min_by(|(_, a), (_, b)| {
            a.features
                .rss_loss_db()
                .total_cmp(&b.features.rss_loss_db())
        });
    match best {
        Some((_, c)) => ros_obs::event(
            "detector.pick",
            &[
                ("found", true.into()),
                ("cx", c.features.center.x.into()),
                ("cy", c.features.center.y.into()),
                ("loss_db", c.features.rss_loss_db().into()),
            ],
        ),
        None => ros_obs::event("detector.pick", &[("found", false.into())]),
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_radar::echo::Pose;
    use ros_radar::pointcloud::RadarPoint;

    /// Builds a cloud with a compact "tag" blob at (0, 2) and a large
    /// "tree" blob at (4, 3).
    fn test_cloud() -> PointCloud {
        let mut cloud = PointCloud::new();
        let pose = Pose::side_looking(Vec3::ZERO);
        let mut pts = Vec::new();
        for i in 0..12 {
            let jitter = (i as f64 * 0.618) % 1.0 - 0.5;
            pts.push(RadarPoint {
                range_m: 2.0 + 0.02 * jitter,
                azimuth_rad: 0.008 * jitter,
                power_mw: 1e-5,
            });
        }
        for i in 0..20 {
            let j1 = ((i as f64 * 0.618) % 1.0 - 0.5) * 0.9;
            let j2 = ((i as f64 * 0.382) % 1.0 - 0.5) * 0.4;
            pts.push(RadarPoint {
                range_m: 5.0 + j1,
                azimuth_rad: 0.93 + j2 * 0.25,
                power_mw: 1e-5,
            });
        }
        cloud.add_frame(&pts, &pose);
        cloud
    }

    #[test]
    fn two_clusters_found_and_scored() {
        let cloud = test_cloud();
        let clusters = score_clusters(&cloud, &DetectorConfig::default(), |_, c, _| {
            // Tag near (0, 2): loss 13 dB; tree: loss 17 dB.
            if c.y < 3.0 {
                (-40.0, -53.0)
            } else {
                (-38.0, -55.0)
            }
        });
        assert_eq!(clusters.len(), 2);
        let tags: Vec<_> = clusters.iter().filter(|c| c.is_tag).collect();
        assert_eq!(tags.len(), 1);
        assert!(tags[0].features.center.y < 3.0);
    }

    #[test]
    fn pick_tag_prefers_smallest_loss() {
        let cloud = test_cloud();
        let clusters = score_clusters(&cloud, &DetectorConfig::default(), |_, c, _| {
            if c.y < 3.0 {
                (-40.0, -53.0) // 13 dB loss, compact → tag
            } else {
                (-38.0, -52.0) // 14 dB loss but huge bbox → rejected
            }
        });
        let tag = &clusters[pick_tag(&clusters).expect("tag candidate")];
        assert!((tag.features.rss_loss_db() - 13.0).abs() < 1e-9);
        assert!(tag.features.size_m2 <= 0.05);
    }

    #[test]
    fn large_cluster_rejected_even_with_low_loss() {
        let cloud = test_cloud();
        let clusters = score_clusters(&cloud, &DetectorConfig::default(), |_, _, _| (-40.0, -53.0));
        // Both clusters have tag-like loss; only the compact one passes.
        let tags: Vec<_> = clusters.iter().filter(|c| c.is_tag).collect();
        assert_eq!(tags.len(), 1);
        assert!(tags[0].features.size_m2 < 0.05);
    }

    #[test]
    fn high_loss_cluster_rejected() {
        let cloud = test_cloud();
        let clusters = score_clusters(&cloud, &DetectorConfig::default(), |_, _, _| (-40.0, -58.0));
        // 18 dB loss everywhere: nothing passes.
        assert!(pick_tag(&clusters).is_none());
    }

    #[test]
    fn sparse_clusters_dropped() {
        let mut cloud = PointCloud::new();
        let pose = Pose::side_looking(Vec3::ZERO);
        // Only 3 points: below min_points.
        let pts: Vec<RadarPoint> = (0..3)
            .map(|i| RadarPoint {
                range_m: 2.0 + i as f64 * 0.01,
                azimuth_rad: 0.0,
                power_mw: 1e-5,
            })
            .collect();
        cloud.add_frame(&pts, &pose);
        let clusters = score_clusters(&cloud, &DetectorConfig::default(), |_, _, _| (-40.0, -53.0));
        assert!(clusters.is_empty());
    }

    #[test]
    fn features_expose_loss() {
        let f = ClusterFeatures {
            center: Vec3::ZERO,
            n_points: 10,
            size_m2: 0.01,
            rss_switched_dbm: -50.0,
            rss_native_dbm: -37.0,
        };
        assert!((f.rss_loss_db() - 13.0).abs() < 1e-12);
    }
}

"""F3 — the disk storage architecture (paper Figure 3).

Regenerates the two striping regimes the paper describes (n > p and
n < p), verifies the cyclic placement and capacity-oriented balance, and
times layout computation and whole-array store/remove cycles.
"""

import pytest

from repro.storage.array import DiskArray
from repro.storage.striping import StripingLayout, striping_layout
from repro.storage.video import VideoTitle


def test_figure3_regimes(benchmark, show):
    def compute_regimes():
        return {
            # n > p: "one video part is stored in each one of the first p
            # hard disks".
            "n8_p5": striping_layout(part_count=5, disk_count=8),
            # n < p: "the first n video parts are stored in the n available
            # disks and the rest p-n parts ... starting from disk 1".
            "n4_p11": striping_layout(part_count=11, disk_count=4),
            "n1_p6": striping_layout(part_count=6, disk_count=1),
        }

    layouts = benchmark(compute_regimes)
    assert layouts["n8_p5"] == [0, 1, 2, 3, 4]
    assert layouts["n4_p11"] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]
    assert layouts["n1_p6"] == [0] * 6

    lines = ["F3 striping regimes (cluster index -> disk):"]
    for name, layout in layouts.items():
        lines.append(f"  {name}: {layout}")
    show("\n".join(lines))


def test_figure3_array_balance(benchmark, show):
    """Storing a large video over many disks balances within one cluster."""
    video = VideoTitle("big", size_mb=1_800.0, duration_s=7_200.0)

    def store_cycle():
        array = DiskArray(disk_count=8, disk_capacity_mb=400.0, cluster_mb=64.0)
        array.store(video)
        usage = [array.disk(i).used_mb for i in range(array.disk_count)]
        array.remove("big")
        return usage

    usage = benchmark(store_cycle)
    assert max(usage) - min(usage) <= 64.0 + 1e-9
    assert sum(usage) == pytest.approx(1_800.0)
    show(
        "F3: 1800 MB / 64 MB clusters over 8 disks -> per-disk MB "
        + str([round(u, 1) for u in usage])
    )


def test_striping_layout_throughput(benchmark):
    """Layout math is cheap enough to run per DMA pass (micro-benchmark)."""
    result = benchmark(
        StripingLayout.for_video, "v", 2_000.0, 16.0, 16
    )
    assert result.cluster_count == 125


def test_cluster_size_layout_tradeoff(benchmark, show):
    """Smaller clusters -> more parts -> finer balance; the table the
    paper's 'size of the cluster c plays a decisive part' remark implies."""

    def sweep():
        rows = []
        for cluster_mb in (16.0, 64.0, 256.0, 1_024.0):
            layout = StripingLayout.for_video("v", 2_048.0, cluster_mb, 8)
            per_disk = layout.per_disk_mb()
            spread = max(per_disk.values()) - min(
                per_disk.get(d, 0.0) for d in range(8)
            )
            rows.append((cluster_mb, layout.cluster_count, spread))
        return rows

    rows = benchmark(sweep)
    spreads = [spread for _, _, spread in rows]
    assert spreads == sorted(spreads), "imbalance must grow with cluster size"
    lines = ["F3 cluster-size vs balance (2048 MB video, 8 disks):"]
    for cluster_mb, parts, spread in rows:
        lines.append(
            f"  c={cluster_mb:6.0f} MB -> p={parts:4d} clusters, "
            f"max-min per-disk spread {spread:7.1f} MB"
        )
    show("\n".join(lines))

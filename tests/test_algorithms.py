"""Online assignment rules: single-open-server and first-fit scanning."""

import hashlib
from fractions import Fraction

import pytest

from rentlab import (
    algorithms,
    analysis,
    check_schedule,
    cli,
    cost,
    first_fit,
    make_instance,
    next_fit,
    scale_time,
    server_type_partition,
    write_instance,
)
from rentlab.algorithms import AlgorithmTrace, Decision
from rentlab.generators import (
    ggu_extended,
    long_uniform,
    nf_nemesis,
    random_equal_duration,
    random_two_arrival,
)
from rentlab.optimal import brute_force_opt


F = Fraction


def server_sets(trace):
    return [set(s.job_indices) for s in trace.schedule.servers]


# ---------------------------------------------------------------------------
# Single open server
# ---------------------------------------------------------------------------

def test_next_fit_overflow_opens_new_server():
    inst = make_instance([(F(6, 10), 0, 1)] * 3)
    trace = next_fit(inst)
    assert server_sets(trace) == [{0}, {1}, {2}]
    assert cost(trace.schedule) == 3


def test_next_fit_never_reuses_closed_server():
    # alternating big/small pairs force a fresh server per pair
    rows = []
    for _ in range(6):
        rows.append((F(1, 2), 0, 1))
        rows.append((F(1, 6), 0, 1))
    inst = make_instance(rows)
    trace = next_fit(inst)
    assert len(trace.schedule.servers) == 6
    assert cost(trace.schedule) == 6
    opt = brute_force_opt(inst, max_jobs=12)
    assert opt.cost == 4
    assert cost(trace.schedule) / opt.cost == F(3, 2)


def test_next_fit_single_job():
    inst = make_instance([(F(1, 3), 1, 4)])
    trace = next_fit(inst)
    assert server_sets(trace) == [{0}]
    assert cost(trace.schedule) == 3


def test_next_fit_closes_expired_server_without_overflow():
    # second job starts after the open server's last finish
    inst = make_instance([(F(1, 2), 0, 1), (F(1, 2), 5, 6)])
    trace = next_fit(inst)
    assert server_sets(trace) == [{0}, {1}]
    assert cost(trace.schedule) == 2
    # the expired server still counts as scanned
    assert [d.servers_scanned for d in trace.decisions] == [0, 1]


def test_next_fit_targets_only_latest_server():
    for seed in range(30):
        inst = random_equal_duration(12, seed=seed)
        trace = next_fit(inst)
        assert check_schedule(trace.schedule) == []
        # every placement lands on the most recently opened server
        latest = -1
        for dec in trace.decisions:
            if dec.opened_new_server:
                latest += 1
                assert dec.server_id == latest
            else:
                assert dec.server_id == latest
            assert dec.servers_scanned <= 1


# ---------------------------------------------------------------------------
# First fit
# ---------------------------------------------------------------------------

def test_first_fit_prefers_earliest_alive_server():
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 0, 2), (F(1, 4), 0, 2)])
    trace = first_fit(inst)
    assert server_sets(trace) == [{0, 1}, {2}]
    assert cost(trace.schedule) == 4


def test_first_fit_single_job():
    inst = make_instance([(F(1), 0, 2)])
    trace = first_fit(inst)
    assert server_sets(trace) == [{0}]
    assert cost(trace.schedule) == 2


def test_first_fit_reuses_server_after_departures():
    # first server drains at time 2, so the time-2 job fits back into it
    inst = make_instance(
        [(F(3, 4), 0, 2), (F(3, 4), 0, 2), (F(3, 4), 2, 4)]
    )
    trace = first_fit(inst)
    assert server_sets(trace) == [{0, 2}, {1}]


def test_first_fit_scan_order_matches_decisions():
    # reconstruct alive lists from the trace and confirm the scan semantics
    for seed in range(30):
        inst = random_equal_duration(12, seed=seed)
        trace = first_fit(inst)
        assert check_schedule(trace.schedule) == []
        opened: list[int] = []           # server ids in opening order
        max_finish: dict[int, Fraction] = {}
        loads: dict[int, list[int]] = {}
        jobs = inst.jobs
        for dec in trace.decisions:
            jb = jobs[dec.job_index]
            alive = [sid for sid in opened if max_finish[sid] >= jb.start]

            def load_at_start(sid):
                return sum(
                    (jobs[i].size for i in loads[sid] if jobs[i].active_at(jb.start)),
                    F(0),
                )

            if dec.opened_new_server:
                # every alive server was scanned and rejected
                assert dec.servers_scanned == len(alive)
                for sid in alive:
                    assert load_at_start(sid) + jb.size > 1
                opened.append(dec.server_id)
                loads[dec.server_id] = []
                max_finish[dec.server_id] = jb.finish
            else:
                assert dec.server_id == alive[dec.servers_scanned - 1]
                for sid in alive[: dec.servers_scanned - 1]:
                    assert load_at_start(sid) + jb.size > 1
                assert load_at_start(dec.server_id) + jb.size <= 1
                max_finish[dec.server_id] = max(max_finish[dec.server_id], jb.finish)
            loads[dec.server_id].append(dec.job_index)


def test_algorithms_are_deterministic():
    inst = random_equal_duration(15, seed=99)
    assert first_fit(inst) == first_fit(inst)
    assert next_fit(inst) == next_fit(inst)


def test_algorithms_reject_invalid_instances():
    inst = make_instance([(F(3, 2), 0, 1)])
    with pytest.raises(ValueError):
        next_fit(inst)
    with pytest.raises(ValueError):
        first_fit(inst)


def test_first_fit_on_adversarial_family():
    inst, _ = ggu_extended(6, F(1, 2))
    trace = first_fit(inst)
    assert len(trace.schedule.servers) == 102
    assert cost(trace.schedule) == 153


def test_traces_match_golden_digest():
    # one digest over both policies' decisions and servers; the sparse
    # integer starts of the last instance make NextFit meet expired servers
    instances = [
        long_uniform(10, 10),
        ggu_extended(6, F(1, 2))[0],
        nf_nemesis(5),
        random_two_arrival(40, F(1, 3), seed=3),
        random_equal_duration(30, seed=4, start_grid=1, horizon=20),
    ]
    digest = hashlib.sha256()
    for inst in instances:
        for policy in (next_fit, first_fit):
            trace = policy(inst)
            servers = [
                (s.id, s.job_indices, str(s.open_time), str(s.close_time))
                for s in trace.schedule.servers
            ]
            digest.update(repr((trace.decisions, servers)).encode())
    assert digest.hexdigest() == (
        "0728ad9fe4cf3cfca3414f4aa9d05e27db623c0e5969045e3d438eff5f5e6adb"
    )


def test_counters_record_kernel_work_outside_equality():
    ggu = ggu_extended(6, F(1, 2))[0]
    sparse = random_equal_duration(30, seed=4, start_grid=1, horizon=20)
    expected = {
        # 282 queries on a tree of up to 128 leaves, none rebuilt
        (first_fit, ggu): {"index_rebuilds": 0, "tree_steps": 1582, "servers_opened": 102},
        # NextFit's tree has one leaf, so its queries take no steps
        (next_fit, ggu): {"index_rebuilds": 0, "tree_steps": 0, "servers_opened": 123},
        (first_fit, sparse): {"index_rebuilds": 5, "tree_steps": 13, "servers_opened": 8},
        # the one leaf is rebuilt empty each time its server expires
        (next_fit, sparse): {"index_rebuilds": 2, "tree_steps": 0, "servers_opened": 11},
    }
    for (policy, inst), counters in expected.items():
        trace = policy(inst)
        assert trace.counters == counters
        bare = AlgorithmTrace(trace.schedule, trace.server_ids, trace.servers_scanned)
        assert bare.counters == {}
        assert bare == trace and hash(bare) == hash(trace) and repr(bare) == repr(trace)


@pytest.fixture
def decisions_built(monkeypatch):
    """The job index of every Decision built while the test runs."""
    built = []

    class Counted(Decision):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[0])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(algorithms, "Decision", Counted)
    return built


def test_run_and_verify_paths_build_no_decision(decisions_built, tmp_path):
    path = tmp_path / "ggu.jobs"
    write_instance(path, ggu_extended(6, F(1, 2))[0])
    for alg in ("firstfit", "nextfit"):
        out, schedule_out = tmp_path / f"{alg}.json", tmp_path / f"{alg}-schedule.json"
        argv = ["run", "--alg", alg, "--in", str(path), "--out", str(out),
                "--schedule-out", str(schedule_out)]
        assert cli.main(argv) == 0
    assert analysis.suite_nextfit_2t(trials=20).passed
    assert analysis.suite_strict_ff_2(trials=20).passed
    assert analysis.suite_weights(trials=4).passed
    assert decisions_built == []


def test_decisions_are_built_once_on_first_read(decisions_built):
    inst = ggu_extended(6, F(1, 2))[0]
    for policy in (first_fit, next_fit):
        trace, again = policy(inst), policy(inst)
        assert len(trace.server_ids) == len(trace.servers_scanned) == len(inst.jobs)
        assert trace == again and hash(trace) == hash(again)
        assert decisions_built == []
        records = trace.decisions
        assert decisions_built == list(range(len(inst.jobs)))
        decisions_built.clear()
        assert trace.decisions is records and len(records) == len(inst.jobs)
        assert decisions_built == []


# ---------------------------------------------------------------------------
# Server taxonomy for duration-2 / arrivals-{0,1} runs
# ---------------------------------------------------------------------------

def test_partition_counts_shared_server():
    # the second job joins the first server, which then holds both arrivals
    inst = make_instance([(F(1, 2), 0, 2), (F(1, 3), 1, 3)])
    part = server_type_partition(first_fit(inst))
    assert part.counts == (0, 1, 0)
    assert part.start1_mass == F(1, 3)


def test_partition_counts_split_servers():
    inst = make_instance([(F(3, 4), 0, 2), (F(3, 4), 1, 3)])
    part = server_type_partition(first_fit(inst))
    assert part.counts == (1, 0, 1)
    assert part.start0_mass_type1 == F(3, 4)
    assert part.start1_mass == F(3, 4)


def test_partition_cost_identity():
    # cost = 2*k1 + 3*k2 + 2*k3 whenever every job has duration 2
    for seed in range(40):
        base = random_two_arrival(8, F(1, 2), seed=seed)
        inst = scale_time(base, F(2))
        trace = first_fit(inst)
        part = server_type_partition(trace)
        k1, k2, k3 = part.counts
        assert k1 + k2 + k3 == len(trace.schedule.servers)
        assert cost(trace.schedule) == 2 * k1 + 3 * k2 + 2 * k3


def test_partition_requires_strict_shape():
    inst = make_instance([(F(1, 2), 0, 1)])
    with pytest.raises(ValueError, match="^job 0 has duration 1; expected 2$"):
        server_type_partition(first_fit(inst))
    inst = make_instance([(F(1, 2), F(1, 2), F(5, 2))])
    with pytest.raises(ValueError, match="^job 0 starts at 1/2; expected 0 or 1$"):
        server_type_partition(first_fit(inst))


def test_mixed_servers_open_before_late_servers():
    # servers holding both arrival times always open before
    # servers holding only second-arrival jobs
    for seed in range(40):
        base = random_two_arrival(10, F(1, 2), seed=seed * 7 + 1)
        inst = scale_time(base, F(2))
        trace = first_fit(inst)
        part = server_type_partition(trace)
        if part.type2 and part.type3:
            assert max(s.id for s in part.type2) < min(s.id for s in part.type3)
        # servers with time-0 jobs open at 0, pure time-1 servers at 1
        for srv in part.type1 + part.type2:
            assert srv.open_time == 0
        for srv in part.type3:
            assert srv.open_time == 1

"""Sweep engine: configuration, accounting, determinism, CSV and CLI."""

import io
import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import scckm
from scckm import sim
from scckm.cck import unpack_bits
from scckm.cli import build_config, main, parse_ebn0, read_config_file
from scckm.modem import scck_map, sm_map
from scckm.ofdm import OfdmParams
from scckm.sim import (SimConfig, canonical_config_string, emit_csv,
                       noise_variance, read_csv, run_point, run_sweep)


def small_config(**overrides):
    base = dict(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(4.0,), frames=3,
                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_scck_antenna_count_is_bound_to_scheme(self):
        with pytest.raises(ValueError):
            small_config(scheme="scck4", n_tx=2)

    @pytest.mark.parametrize("n_tx", [3, 6])
    def test_sm_antenna_count_is_a_power_of_two(self, n_tx):
        with pytest.raises(ValueError, match="power of two"):
            small_config(scheme="sm-bpsk", n_tx=n_tx, n_rx=8)

    def test_zero_forcing_needs_enough_receivers(self):
        with pytest.raises(ValueError):
            small_config(scheme="sm-4qam", n_tx=4, n_rx=2)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            small_config(scheme="qpsk")

    def test_rejects_nan_and_negative_inf(self):
        with pytest.raises(ValueError):
            small_config(ebn0_db=(float("nan"),))
        with pytest.raises(ValueError):
            small_config(ebn0_db=(float("-inf"),))

    def test_rejects_string_ebn0(self):
        # a string is a sequence too: "10" would run points at 1 dB and 0 dB;
        # a scalar gets the same message, 0.0 included
        for ebn0_db in ("10", 5.0, 0.0):
            with pytest.raises(ValueError, match="^ebn0 must be a sequence of numbers"):
                small_config(ebn0_db=ebn0_db)

    # the noise variance of each would overflow, divide by zero or be inf
    @pytest.mark.parametrize("ebn0_db", [4000.0, -3300.0, -3234.0])
    def test_rejects_ebn0_without_noise_variance(self, ebn0_db):
        with pytest.raises(ValueError, match=f"^ebn0 {ebn0_db} dB is out of range"):
            small_config(ebn0_db=(ebn0_db,))

    @pytest.mark.parametrize("ofdm", [None, (64, 16)])
    def test_rejects_ofdm_that_is_not_ofdm_params(self, ofdm):
        with pytest.raises(ValueError, match="^ofdm must be an OfdmParams"):
            small_config(ofdm=ofdm)

    def test_rejects_empty_ebn0(self):
        with pytest.raises(ValueError, match="^ebn0 list must be non-empty$"):
            small_config(ebn0_db=())

    def test_narrow_numpy_ebn0_is_stored_as_a_float(self):
        # float16 has no 10 ** 6: the noise variance is computed in double precision
        ebn0_db = small_config(ebn0_db=(np.float16(60),)).ebn0_db
        assert ebn0_db == (60.0,) and type(ebn0_db[0]) is float

    def test_taps_must_fit_in_prefix(self):
        with pytest.raises(ValueError):
            small_config(taps=6)

    def test_bits_per_subcarrier(self):
        assert small_config().bits_per_subcarrier == 2
        assert small_config(scheme="scck8", n_tx=8, n_rx=8).bits_per_subcarrier == 8
        assert small_config(scheme="sm-4qam", n_tx=4, n_rx=4).bits_per_subcarrier == 4
        assert small_config(scheme="sm-bpsk", n_tx=8, n_rx=8).bits_per_subcarrier == 4

    @pytest.mark.parametrize("field,value,message", [
        ("n_tx", 2.0, "transmit antenna count must be an integer"),
        ("n_rx", 4.5, "receive antenna count must be an integer"),
        ("frames", 2.5, "frame count must be an integer"),
        ("symbols_per_frame", 2.5, "symbols per frame must be an integer"),
        ("seed", 1.5, "seed must be a 64-bit unsigned integer"),
        ("taps", 2.0, "tap count must be an integer"),
        ("max_bit_errors", 1.5, "max bit errors must be an integer"),
        # bool is a subclass of int
        ("frames", True, "frame count must be an integer"),
        ("seed", True, "seed must be a 64-bit unsigned integer"),
    ])
    def test_rejects_non_integer_counts(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            small_config(**{field: value})

    def test_ebn0_coerced_to_floats(self):
        cfg = small_config(ebn0_db=(0, 4))
        assert cfg.ebn0_db == (0.0, 4.0)
        cfg = small_config(ebn0_db=(np.float32(0.5), np.int64(4)))
        assert cfg.ebn0_db == (0.5, 4.0)

    # True would run 1 dB, "1" 1 dB, and 1j raised a bare TypeError
    @pytest.mark.parametrize("ebn0_db", [(True, 2), (np.True_,), ("1", "2"), (1j,), (1 + 0j,)],
                             ids=["bool", "numpy-bool", "strings", "complex", "complex-real"])
    def test_rejects_ebn0_entries_that_are_not_real_numbers(self, ebn0_db):
        with pytest.raises(ValueError, match="^ebn0 values must be real numbers, got "):
            small_config(ebn0_db=ebn0_db)


# every scheme at each antenna count it takes
SCHEME_SIZES = [("scck2", 2), ("scck4", 4), ("scck8", 8), ("sm-bpsk", 2), ("sm-bpsk", 4),
                ("sm-bpsk", 8), ("sm-4qam", 2), ("sm-4qam", 4), ("sm-4qam", 8)]


class TestSchemeTable:
    def test_sizes_cover_every_scheme(self):
        assert {name for name, _ in SCHEME_SIZES} == set(sim.SCHEMES)

    @pytest.mark.parametrize("name,n_tx", SCHEME_SIZES)
    def test_table_fixes_bits_and_antennas(self, name, n_tx):
        table = sim.SCHEMES[name].table(n_tx)
        m = small_config(scheme=name, n_tx=n_tx, n_rx=n_tx).bits_per_subcarrier
        assert table.shape == (2 ** m, n_tx)
        energies = np.sum(np.abs(table) ** 2, axis=1)
        np.testing.assert_allclose(energies, 1.0, atol=1e-12)
        # detection scores Re(z c^H) alone, which needs rows of exactly one energy
        assert np.all(energies == energies[0])

    @pytest.mark.parametrize("name,n_tx", SCHEME_SIZES)
    def test_map_sends_the_table_rows_in_order(self, name, n_tx):
        scheme = sim.SCHEMES[name]
        table = scheme.table(n_tx)
        every_pattern = unpack_bits(np.arange(len(table)), len(table).bit_length() - 1)
        if scheme.codebook is not None:
            grid = scck_map(every_pattern, scheme.codebook())
        else:
            grid = sm_map(every_pattern, n_tx, scheme.constellation)
        assert np.array_equal(grid.T, table)


class TestNoiseVariance:
    def test_formula(self):
        cfg = small_config(scheme="scck4", n_tx=4, n_rx=4)
        assert abs(noise_variance(cfg, 10.0) - 1 / 40) < 1e-15

    def test_infinite_snr_is_noiseless(self):
        assert noise_variance(small_config(), float("inf")) == 0.0

    # none of these has a finite positive noise variance
    @pytest.mark.parametrize("ebn0_db,message", [
        (float("nan"), "^ebn0 values must be finite or \\+inf, got nan$"),
        (float("-inf"), "^ebn0 values must be finite or \\+inf, got -inf$"),
        (4000.0, "^ebn0 4000.0 dB is out of range: its noise variance is not"),
        (-3300.0, "^ebn0 -3300.0 dB is out of range: its noise variance is not"),
        (-3234.0, "^ebn0 -3234.0 dB is out of range: its noise variance is not"),
        (10 ** 400, "^ebn0 1000+ dB is out of range: its noise variance is not"),
        (np.float32("nan"), "^ebn0 values must be finite or \\+inf, got nan$"),
    ], ids=["nan", "-inf", "4000", "-3300", "-3234", "int-past-float", "float32-nan"])
    def test_rejects_ebn0_without_noise_variance(self, ebn0_db, message):
        with pytest.raises(ValueError, match=message):
            noise_variance(small_config(), ebn0_db)

    @pytest.mark.parametrize("ebn0_db", [True, False, "1", 1j, None])
    def test_rejects_values_that_are_not_real_numbers(self, ebn0_db):
        with pytest.raises(ValueError, match="^ebn0 values must be real numbers, got "):
            noise_variance(small_config(), ebn0_db)

    def test_numpy_reals_are_numbers(self):
        cfg = small_config()
        assert noise_variance(cfg, np.float32(10.0)) == noise_variance(cfg, 10.0)
        assert noise_variance(cfg, np.int64(10)) == noise_variance(cfg, 10)

    def test_narrow_numpy_reals_are_computed_in_double_precision(self):
        cfg = small_config()
        assert noise_variance(cfg, np.float16(60)) == noise_variance(cfg, 60.0)
        assert noise_variance(cfg, np.float32(400)) == noise_variance(cfg, 400.0)
        assert type(noise_variance(cfg, np.float32(10.0))) is float


SRC = os.path.dirname(os.path.dirname(scckm.__file__))


def run_script(body):
    """Run body in a fresh interpreter that imports this checkout's scckm; its stdout."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n" + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestRunPoint:
    def test_bit_accounting(self):
        cfg = small_config()
        pt = run_point(cfg, 4.0)
        assert pt.bits_simulated == 3 * 4 * 32 * 2
        assert pt.ber == pt.bit_errors / pt.bits_simulated

    def test_noiseless_is_error_free(self):
        pt = run_point(small_config(), float("inf"))
        assert pt.bit_errors == 0
        assert pt.ber == 0.0

    def test_same_seed_reproduces(self):
        cfg = small_config(ebn0_db=(2.0,))
        assert run_point(cfg, 2.0) == run_point(cfg, 2.0)

    def test_seed_changes_result(self):
        a = run_point(small_config(ebn0_db=(0.0,)), 0.0)
        b = run_point(small_config(ebn0_db=(0.0,), seed=10), 0.0)
        assert a.bit_errors != b.bit_errors

    def test_worker_count_is_invisible(self):
        cfg = small_config(frames=12, ebn0_db=(3.0,))
        assert run_point(cfg, 3.0, workers=1) == run_point(cfg, 3.0, workers=4)

    def test_early_stop_counts_whole_frames(self, monkeypatch):
        cfg = small_config(scheme="scck2", frames=50, ebn0_db=(0.0,),
                           max_bit_errors=30)
        pt = run_point(cfg, 0.0)
        frame_bits = 4 * 32 * 2
        assert pt.bit_errors >= 30
        assert pt.bits_simulated % frame_bits == 0
        assert pt.bits_simulated < 50 * frame_bits
        # _symbol_rng is rebound, so every frame runs in this process: no symbol
        # of a frame past the stopping one runs, for any workers value
        symbol_rng = sim._symbol_rng
        for workers in (1, 4):
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return symbol_rng(*args, **kwargs)

            monkeypatch.setattr(sim, "_symbol_rng", counted)
            assert run_point(cfg, 0.0, workers=workers) == pt
            assert len(calls) == pt.bits_simulated // frame_bits * cfg.symbols_per_frame

    def test_starts_no_thread(self, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        cfg = small_config(frames=6, ebn0_db=(3.0,))
        run_point(cfg, 3.0, workers=4)
        assert starts == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the heap pad is set through glibc's mallopt")
    def test_symbols_do_not_refault_the_heap(self):
        # in a fresh interpreter: earlier tests leave free chunks in the heap
        # that can hide the trimming this checks for.  The warm-up forks the
        # helper where there is a second CPU, and its 2 symbols make the
        # caller copy the pages it shares with the helper, so the measured
        # call counts refaults, not the fork's copies.  The faults counted
        # are this process's, so a rebound stage name keeps all 40 symbols of
        # the measured call here; the helper's are checked in TestHelpers
        out = run_script("""
            import dataclasses, resource
            from scckm import sim
            from scckm.sim import SimConfig, run_point
            cfg = SimConfig(scheme="scck8", n_tx=8, n_rx=16, ebn0_db=(8.0,),
                            frames=2, seed=1, symbols_per_frame=20)
            run_point(dataclasses.replace(cfg, frames=1, symbols_per_frame=2), 8.0)
            frame_errors = sim._frame_errors
            sim._frame_errors = lambda *args: frame_errors(*args)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_point(cfg, 8.0)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
        """)
        per_symbol = float(out)
        assert per_symbol < 20, f"{per_symbol:.0f} minor page faults per OFDM symbol"

    # the names perfbench's tracer swaps in scckm.sim (its PROGRAM_STAGES), and the Gram
    STAGES = ("_symbol_rng", "generate_channel", "scck_map", "sm_map", "ofdm_modulate",
              "apply_channel", "ofdm_demodulate", "freq_response", "gram_response",
              "zf_equalize_grid", "ml_detect_scck_grid", "ml_detect_sm_equalized_grid")

    @pytest.mark.parametrize("scheme,other", [
        ("scck2", ("sm_map", "ml_detect_sm_equalized_grid")),
        ("sm-bpsk", ("scck_map", "ml_detect_scck_grid")),
    ], ids=["scck2", "sm-bpsk"])
    def test_stages_are_called_through_the_module(self, monkeypatch, scheme, other):
        calls = dict.fromkeys(self.STAGES, 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in self.STAGES:
            monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
        cfg = small_config(scheme=scheme)
        run_point(cfg, 4.0)
        symbols = cfg.frames * cfg.symbols_per_frame
        assert calls == {name: 0 if name in other else symbols for name in self.STAGES}

    def test_workers_below_one_rejected(self):
        for workers in (0, -5):
            with pytest.raises(ValueError, match="worker count"):
                run_point(small_config(), 4.0, workers=workers)

    @pytest.mark.parametrize("ebn0_db,workers,message", [
        (float("-inf"), 1, "ebn0 values must be finite"),
        (float("nan"), 1, "ebn0 values must be finite"),
        (4.0, 2.5, "worker count"),
        (4.0, "2", "worker count"),
        (4.0, True, "worker count"),
        (4000.0, 1, "ebn0 4000.0 dB is out of range"),
        (-3300.0, 1, "ebn0 -3300.0 dB is out of range"),
        (-3234.0, 1, "ebn0 -3234.0 dB is out of range"),
        (True, 1, "^ebn0 values must be real numbers, got True$"),
        ("4", 1, "^ebn0 values must be real numbers, got '4'$"),
        (4j, 1, "^ebn0 values must be real numbers, got 4j$"),
    ])
    def test_rejects_bad_arguments(self, ebn0_db, workers, message):
        with pytest.raises(ValueError, match=message):
            run_point(small_config(), ebn0_db, workers=workers)

    # (bits_simulated, bit_errors) at 0 dB over 2 frames of 4 symbols, seed 9
    @pytest.mark.parametrize("scheme,n_tx,n_rx,expected", [
        ("scck2", 2, 2, (512, 111)),
        ("scck4", 4, 4, (1024, 207)),
        ("scck8", 8, 8, (2048, 457)),
        ("sm-bpsk", 4, 4, (768, 157)),
        ("sm-4qam", 2, 2, (768, 146)),
    ])
    def test_pinned_counts(self, scheme, n_tx, n_rx, expected):
        cfg = small_config(scheme=scheme, n_tx=n_tx, n_rx=n_rx, frames=2,
                           ebn0_db=(0.0,))
        pt = run_point(cfg, 0.0)
        assert (pt.bits_simulated, pt.bit_errors) == expected

    def test_runs_with_numpy_alone(self):
        # scipy is a test dependency only; the simulator must not import it
        out = run_script("""
            sys.modules["scipy"] = None
            from scckm.ofdm import OfdmParams
            from scckm.sim import SimConfig, run_point
            for scheme, n_tx in (("scck2", 2), ("sm-bpsk", 2)):
                cfg = SimConfig(scheme=scheme, n_tx=n_tx, n_rx=2, ebn0_db=(4.0,),
                                frames=1, seed=1, symbols_per_frame=1,
                                ofdm=OfdmParams(n_sub=32, cp_len=4))
                print(run_point(cfg, 4.0).bits_simulated)
        """)
        assert out.split() == ["64", "64"]

    def test_sm_scheme_runs(self):
        cfg = small_config(scheme="sm-bpsk", n_tx=2, n_rx=4, ebn0_db=(6.0,))
        pt = run_point(cfg, 6.0)
        assert pt.bits_simulated == 3 * 4 * 32 * 2


HAS_HELPERS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
               and len(os.sched_getaffinity(0)) >= 2)


@pytest.mark.skipif(not HAS_HELPERS, reason="helpers need fork and at least 2 CPUs")
class TestHelpers:
    # every scheme; 1, 3 and 7 frames, none a multiple of a pair; and budgets
    # met at the first and the third frame, each the first frame of a pair;
    # "locked" counts the points after which the helper's lock stayed held
    COUNTS = """
        import dataclasses, json, os
        if {one_cpu}:
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        from scckm import sim
        from scckm.ofdm import OfdmParams
        points = []
        locked = 0

        def run(cfg):
            global locked
            points.append(sim.run_point(cfg, -6.0))
            locked += sim._helper.lock.locked()

        for scheme, n_tx in (("scck2", 2), ("scck4", 4), ("scck8", 8), ("sm-bpsk", 4),
                             ("sm-4qam", 2)):
            cfg = sim.SimConfig(scheme=scheme, n_tx=n_tx, n_rx=n_tx, ebn0_db=(-6.0,),
                                frames=7, seed=9, symbols_per_frame=2,
                                ofdm=OfdmParams(n_sub=32, cp_len=4))
            for frames in (1, 3, 7):
                run(dataclasses.replace(cfg, frames=frames))
            for budget in (1, points[-2].bit_errors):
                run(dataclasses.replace(cfg, max_bit_errors=budget))
        print(json.dumps({{"helpers": int(sim._helper.pid != 0), "locked": locked,
                           "points": points}}))
    """

    def test_counts_equal_one_cpu(self):
        one = json.loads(run_script(self.COUNTS.format(one_cpu=True)))
        every = json.loads(run_script(self.COUNTS.format(one_cpu=False)))
        assert one["helpers"] == 0
        assert every["helpers"] == 1
        assert one["locked"] == every["locked"] == 0
        # the budgets stop after 1 and 3 frames of 2 symbols of 32 subcarriers
        stops = [(bits // 64) // config_bits for (_, bits, _, _), config_bits in zip(
            one["points"][3::5] + one["points"][4::5], [2, 4, 8, 3, 3] * 2)]
        assert stops == [1] * 5 + [3] * 5
        assert every["points"] == one["points"]

    def test_killed_helper_and_forked_child(self):
        out = run_script("""
            import json, os, signal
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=4,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            first = sim.run_point(cfg, 0.0)
            killed = sim._helper.pid
            os.kill(killed, signal.SIGKILL)
            assert sim.run_point(cfg, 0.0) == first
            assert sim.run_point(cfg, 0.0) == first
            parent = sim._helper.pid
            assert parent and parent != killed
            read, write = os.pipe()
            child = os.fork()
            if child == 0:
                # a normal exit, so the child's own atexit hook runs too
                os.close(read)
                same = sim.run_point(cfg, 0.0) == first
                os.write(write, json.dumps([same, sim._helper.pid]).encode())
                sys.exit(0)
            os.close(write)
            with open(read) as pipe:
                same, own = json.load(pipe)
            assert os.waitpid(child, 0)[1] == 0
            assert same and own != parent
            # the child neither reaped the parent's helper nor read its pipes
            os.kill(parent, 0)
            assert sim.run_point(cfg, 0.0) == first
            assert sim._helper.pid == parent
            print("ok")
        """)
        assert out.split() == ["ok"]

    def test_a_raise_stops_the_helper_only_with_a_job_out(self):
        # of 3 frames the caller runs frame 0 with frame 1 out to the helper,
        # then frame 2 alone; the substream is patched after the fork, so
        # only the caller's frame raises
        out = run_script("""
            import os
            import numpy as np
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=3,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            first = sim.run_point(cfg, 0.0)
            seed_sequence = np.random.SeedSequence

            def raising(frame):
                def substream(seed, spawn_key):
                    if spawn_key[0] == frame:
                        raise KeyboardInterrupt
                    return seed_sequence(seed, spawn_key=spawn_key)
                return substream

            for frame, kept in ((2, True), (0, False)):
                helper = sim._helper.pid
                assert helper
                np.random.SeedSequence = raising(frame)
                try:
                    sim.run_point(cfg, 0.0)
                except KeyboardInterrupt:
                    pass
                else:
                    raise AssertionError(f"frame {frame} did not raise")
                np.random.SeedSequence = seed_sequence
                assert not sim._helper.lock.locked(), frame
                assert (sim._helper.pid == helper) == kept, frame
                if kept:
                    os.kill(helper, 0)
                assert sim.run_point(cfg, 0.0) == first
            print("ok")
        """)
        assert out.split() == ["ok"]

    def test_a_helper_dead_with_a_job_out_leaves_the_frame_its_error(self):
        # the helper inherits a substream that raises on frame 1, so it exits
        # with that job out and the caller reads EOF: the caller then runs the
        # pair itself and raises the frame's own error
        out = run_script("""
            import os
            import numpy as np
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=2,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            fork, seed_sequence = os.fork, np.random.SeedSequence
            helpers = []

            def recorded_fork():
                pid = fork()
                if pid:
                    helpers.append(pid)
                return pid

            def substream(seed, spawn_key):
                if spawn_key[0] == 1:
                    raise LookupError("frame 1")
                return seed_sequence(seed, spawn_key=spawn_key)

            os.fork, np.random.SeedSequence = recorded_fork, substream
            try:
                sim.run_point(cfg, 0.0)
            except LookupError as error:
                assert str(error) == "frame 1", error
            else:
                raise AssertionError("frame 1 did not raise")
            np.random.SeedSequence = seed_sequence
            assert len(helpers) == 1 and sim._helper.pid == 0
            assert not sim._helper.lock.locked()
            try:
                os.kill(helpers[0], 0)
            except ProcessLookupError:
                pass
            else:
                raise AssertionError("the dead helper was not reaped")
            point = sim.run_point(cfg, 0.0)
            assert len(helpers) == 2 and sim._helper.pid == helpers[1]
            print(point.bits_simulated, point.bit_errors)
        """)
        # TestRunPoint.test_pinned_counts' scck2 point
        assert out.split() == ["512", "111"]

    def test_helpers_end_with_the_process(self):
        out = run_script("""
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=4,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            sim.run_point(cfg, 0.0)
            print(sim._helper.pid)
        """)
        pid = int(out)
        assert pid
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the heap pad is set through glibc's mallopt")
    def test_symbols_with_helpers_do_not_refault_the_heap(self):
        # TestRunPoint's check, for the caller and a helper each running one
        # frame of a call: after the first frame of each, which copies the
        # pages it writes from the process it was forked from
        out = run_script("""
            from scckm import sim
            cfg = sim.SimConfig(scheme="scck8", n_tx=8, n_rx=16, ebn0_db=(8.0,),
                                frames=2, seed=1, symbols_per_frame=20)
            sim.run_point(cfg, 8.0)

            def minor_faults(pid):  # field 10 of stat, past the parenthesised name
                with open(f"/proc/{pid}/stat") as stat:
                    return int(stat.read().rsplit(")", 1)[1].split()[7])

            helper = sim._helper.pid
            assert helper
            before = [minor_faults(pid) for pid in ("self", helper)]
            sim.run_point(cfg, 8.0)
            for pid, faults in zip(("self", helper), before):
                print((minor_faults(pid) - faults) / cfg.symbols_per_frame)
        """)
        for who, per_symbol in zip(("caller", "helper"), map(float, out.split())):
            assert per_symbol < 20, (
                f"{per_symbol:.0f} minor page faults per OFDM symbol in the {who}")

    def test_forks_only_as_the_one_thread(self):
        # fork copies only the calling thread, so with a second Python thread
        # alive the frames run here, and the first call after it ends forks
        out = run_script("""
            import threading
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=4,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            release = threading.Event()
            waiter = threading.Thread(target=release.wait)
            waiter.start()
            first = sim.run_point(cfg, 0.0)
            alone = int(sim._helper.pid != 0)
            release.set()
            waiter.join(timeout=60)
            assert not waiter.is_alive()
            assert sim.run_point(cfg, 0.0) == first
            print(alone, int(sim._helper.pid != 0))
        """)
        assert out.split() == ["0", "1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="open files are read there")
    def test_failed_fork_keeps_no_descriptor_and_no_child(self):
        # a fork that fails closes both pipes; a warning from a fork that made
        # its child (Python 3.12+ with OpenBLAS's threads), raised as an error,
        # comes once the helper is recorded, so it is used and reaped
        out = run_script("""
            import errno, os, warnings
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=4,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            fork = os.fork
            opened = len(os.listdir("/proc/self/fd"))

            def failed_fork():
                raise OSError(errno.EAGAIN, "no process")

            os.fork = failed_fork
            first = sim.run_point(cfg, 0.0)
            assert not sim._helper.pid
            assert len(os.listdir("/proc/self/fd")) == opened

            def warning_fork():
                pid = fork()
                if pid:
                    warnings.warn("This process is multi-threaded, use of fork() may "
                                  "lead to deadlocks in the child.", DeprecationWarning)
                return pid

            sim._helper.stop()
            os.fork = warning_fork
            warnings.simplefilter("error", DeprecationWarning)
            try:
                sim.run_point(cfg, 0.0)
            except DeprecationWarning:
                pass
            else:
                raise AssertionError("the fork's warning was lost")
            helper = sim._helper.pid
            assert helper
            assert len(os.listdir("/proc/self/fd")) == opened + 2
            assert sim.run_point(cfg, 0.0) == first
            print(helper)
        """)
        pid = int(out)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="open files are read there")
    def test_helper_holds_no_inherited_descriptor(self):
        # a pipe opened before the fork reaches EOF once the caller closes its
        # write end, and the helper holds only stdio and its own two pipes
        out = run_script("""
            import os, select
            from scckm import sim
            from scckm.ofdm import OfdmParams
            cfg = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=2,
                                seed=9, symbols_per_frame=4, ofdm=OfdmParams(n_sub=32, cp_len=4))
            read, write = os.pipe()
            sim.run_point(cfg, 0.0)
            helper = sim._helper.pid
            assert helper
            os.close(write)
            ready = select.select([read], [], [], 5)[0]
            os.kill(helper, 0)
            assert ready and os.read(read, 1) == b"", "the helper holds the write end"
            held = sorted(map(int, os.listdir(f"/proc/{helper}/fd")))
            pipes = {os.readlink(f"/proc/{helper}/fd/{fd}") for fd in held[3:]}
            own = {os.readlink(f"/proc/self/fd/{end.fileno()}")
                   for end in (sim._helper.jobs, sim._helper.counts)}
            assert held[:3] == [0, 1, 2] and len(held) == 5 and pipes == own, (held, pipes, own)
            print("ok")
        """)
        assert out.split() == ["ok"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="threads are read in /proc")
    def test_points_start_no_blas_thread(self):
        # the fork leaves the caller and the helper one OS thread each; at
        # scck8 8x32 the per-tap product of apply_channel, done whole, is past
        # OpenBLAS's threading size and starts its worker again in both
        out = run_script("""
            import json, os
            from scckm import sim
            from scckm.ofdm import OfdmParams

            def threads(pid):
                return len(os.listdir(f"/proc/{pid}/task"))

            warm = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=2, ebn0_db=(0.0,), frames=2,
                                 seed=9, symbols_per_frame=1, ofdm=OfdmParams(n_sub=32, cp_len=4))
            sim.run_point(warm, 0.0)
            helper = sim._helper.pid
            assert helper
            counts = [[threads(pid) for pid in ("self", helper)]]
            cfg = sim.SimConfig(scheme="scck8", n_tx=8, n_rx=32, ebn0_db=(0.0,), frames=2,
                                seed=1, symbols_per_frame=2)
            sim.run_point(cfg, 0.0)
            assert sim._helper.pid == helper
            counts.append([threads(pid) for pid in ("self", helper)])
            print(json.dumps(counts))
        """)
        warmed, after = json.loads(out)
        assert after == warmed, f"OS threads of the caller and the helper: {warmed} -> {after}"

    def test_each_rebound_stage_runs_every_frame_here(self):
        # perfbench's tracer reads a stage's time in this process: rebinding
        # any one stage name must keep every frame here
        out = run_script(f"""
            from scckm import sim
            from scckm.ofdm import OfdmParams
            ran = {{}}

            def counted(name, fn):
                def call(*args, **kwargs):
                    ran[name] = ran.get(name, 0) + 1
                    return fn(*args, **kwargs)
                return call

            for name in {TestRunPoint.STAGES!r}:
                scheme, n_tx = ("sm-bpsk", 4) if "sm_" in name else ("scck2", 2)
                cfg = sim.SimConfig(scheme=scheme, n_tx=n_tx, n_rx=n_tx, ebn0_db=(0.0,),
                                    frames=4, seed=9, symbols_per_frame=2,
                                    ofdm=OfdmParams(n_sub=32, cp_len=4))
                expected = sim.run_point(cfg, 0.0)
                assert sim._helper.pid
                original = getattr(sim, name)
                setattr(sim, name, counted(name, original))
                assert sim.run_point(cfg, 0.0) == expected
                setattr(sim, name, original)
            print(sorted(set(ran.values())), len(ran))
        """)
        assert out.split("] ") == ["[8", f"{len(TestRunPoint.STAGES)}\n"]

    def test_calls_on_other_threads_run_alone(self):
        # one call at a time holds the helper's pipes; more threads than CPUs
        # and a short switch interval make an unguarded pipe mix counts up
        cfg = small_config(frames=6, ebn0_db=(0.0,))
        expected = run_point(cfg, 0.0)
        results = []
        threads = [threading.Thread(target=lambda: results.append(run_point(cfg, 0.0)))
                   for _ in range(2 * len(os.sched_getaffinity(0)) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(threads)


class TestSweep:
    def test_points_sorted_ascending(self):
        cfg = small_config(ebn0_db=(8.0, 0.0, 4.0))
        curve = run_sweep(cfg)
        assert [p.ebn0_db for p in curve.points] == [0.0, 4.0, 8.0]

    def test_ber_trend_with_common_randomness(self):
        cfg = small_config(scheme="scck2", n_rx=4, frames=6,
                           ebn0_db=(0.0, 8.0, float("inf")))
        curve = run_sweep(cfg)
        bers = [p.ber for p in curve.points]
        assert bers[0] >= bers[1] >= bers[2]
        assert bers[2] == 0.0


class TestCsv:
    def test_round_trip(self):
        cfg = small_config(ebn0_db=(0.0, 4.0))
        curve = run_sweep(cfg)
        buf = io.StringIO()
        emit_csv(curve, buf)
        text = buf.getvalue()
        assert text.startswith("# config: scheme=scck2 ntx=2 nrx=2 ")
        assert "# seed: 9\n" in text
        assert "ebn0_db,bits_simulated,bit_errors,ber\n" in text
        config_str, seed, points = read_csv(io.StringIO(text))
        assert config_str == canonical_config_string(cfg)
        assert seed == 9
        assert [tuple(p) for p in points] == [tuple(p) for p in curve.points]

    def test_blank_lines_are_skipped(self):
        text = ("\n# config: scheme=scck2\n\n# seed: 3\nebn0_db,bits_simulated,bit_errors,ber\n"
                "\n0.0,64,2,0.03125\n\n")
        assert read_csv(io.StringIO(text)) == ("scheme=scck2", 3,
                                               [sim.BerPoint(0.0, 64, 2, 0.03125)])

    def test_canonical_string_excludes_scheduling(self):
        cfg = small_config()
        s = canonical_config_string(cfg)
        assert "workers" not in s
        assert "max_bit_errors=none" in s

    def test_file_destination(self, tmp_path):
        cfg = small_config()
        curve = run_sweep(cfg)
        path = tmp_path / "out.csv"
        emit_csv(curve, path)
        config_str, seed, points = read_csv(path)
        assert seed == cfg.seed and len(points) == 1


class TestParseEbn0:
    def test_range_is_inclusive(self):
        assert parse_ebn0("0:2:10") == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

    def test_fractional_step(self):
        vals = parse_ebn0("0:2.5:5")
        assert vals == (0.0, 2.5, 5.0)
        # the values the text names, not 0.30000000000000004
        assert parse_ebn0("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)

    def test_comma_list_with_inf(self):
        assert parse_ebn0("1,3.5,inf") == (1.0, 3.5, float("inf"))
        assert parse_ebn0("+inf, Infinity") == (float("inf"),) * 2

    # 1e400 overflows to inf, which would run without noise
    @pytest.mark.parametrize("bad", ["1e400", "0,-1e400", "nan"])
    def test_non_finite_entry_must_be_spelled_as_infinity(self, bad):
        with pytest.raises(ValueError, match="is not a finite number; write inf"):
            parse_ebn0(bad)

    def test_empty_range(self):
        with pytest.raises(ValueError, match="^empty ebn0 range '5:1:0'$"):
            parse_ebn0("5:1:0")

    # 5e-324 makes the step count inf; 1e-300 would ask for 1e300 points
    @pytest.mark.parametrize("text,steps", [("0:5e-324:1", "inf"), ("0:1e-5:1", "1e\\+05")],
                             ids=["subnormal-step", "1e5-steps"])
    def test_range_with_too_many_steps(self, text, steps):
        with pytest.raises(ValueError,
                           match=f"^ebn0 range '{text}' has {steps} steps, not under 10000$"):
            parse_ebn0(text)

    def test_fine_step(self):
        values = parse_ebn0("0:1e-3:1")
        assert len(values) == 1001 and values[-1] == 1.0

    @pytest.mark.parametrize("bad", ["", "0:0:4", "0:2", "a,b",
                                     "0:2:inf", "nan:1:2", "0:inf:10"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ebn0(bad)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "scheme = scck2\n"
            "nrx = 2\n"
            "ebn0 = 0:5:10\n"
            "frames = 7\n"
            "max-bit-errors = 100\n"
        )
        settings = read_config_file(str(cfg_file))
        assert settings["scheme"] == "scck2"
        assert settings["max_bit_errors"] == 100

    def test_bad_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scheme scck2\n")
        with pytest.raises(ValueError):
            read_config_file(str(cfg_file))

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scheme = scck2\nframs = 1\n")
        with pytest.raises(ValueError) as excinfo:
            read_config_file(str(cfg_file))
        assert str(excinfo.value) == f"{cfg_file}:2: unknown key 'frams'"


class TestBuildConfig:
    def test_ntx_implied_by_scheme(self):
        cfg = build_config({"scheme": "scck4", "nrx": 8, "ebn0": (6.0,)})
        assert cfg.n_tx == 4

    def test_sm_requires_explicit_ntx(self):
        with pytest.raises(ValueError):
            build_config({"scheme": "sm-bpsk", "nrx": 4, "ebn0": (6.0,)})

    def test_requires_nrx(self):
        with pytest.raises(ValueError, match="^--nrx is required$"):
            build_config({"scheme": "scck2", "ebn0": (6.0,)})

    def test_requires_ebn0(self):
        with pytest.raises(ValueError, match="^--ebn0 is required$"):
            build_config({"scheme": "scck2", "nrx": 2})

    def test_defaults(self):
        cfg = build_config({"scheme": "scck2", "nrx": 2, "ebn0": (0.0,)})
        assert cfg.frames == 1000 and cfg.seed == 1 and cfg.taps == 2
        assert cfg.ofdm == OfdmParams()


class TestMain:
    def common_args(self, tmp_path):
        return ["--scheme", "scck2", "--nrx", "2", "--ebn0", "inf",
                "--frames", "2", "--symbols-per-frame", "2", "--nsub", "32",
                "--cp", "4", "--out", str(tmp_path / "run.csv")]

    def test_writes_csv(self, tmp_path):
        assert main(self.common_args(tmp_path)) == 0
        config_str, seed, points = read_csv(tmp_path / "run.csv")
        assert seed == 1
        assert points[0].bit_errors == 0

    def test_stdout_when_no_out(self, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "inf",
                   "--frames", "1", "--symbols-per-frame", "1",
                   "--nsub", "32", "--cp", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("# config: ")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scheme=scck2\nnrx=2\nebn0=inf\nframes=5\n"
                            "symbols-per-frame=1\nnsub=32\ncp=4\n")
        out = tmp_path / "o.csv"
        rc = main(["--config", str(cfg_file), "--frames", "1", "--out", str(out)])
        assert rc == 0
        config_str, _, _ = read_csv(out)
        assert "frames=1 " in config_str

    def test_invalid_arguments_exit_1(self, tmp_path, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "1", "--ebn0", "10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scheme=scck2\nnrx=2\nebn0=inf\nframs=1\n")
        rc = main(["--config", str(cfg_file)])
        assert rc == 1
        assert "unknown key 'frams'" in capsys.readouterr().err

    def test_non_integer_config_value_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("scheme=scck2\nnrx=2\nebn0=inf\nframes = ten\n")
        rc = main(["--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}:4: key 'frames' expects an integer, got 'ten'\n")

    def test_non_integer_config_value_exits_1_under_a_flag(self, tmp_path, capsys):
        # the file is typed as it is read, so a flag that overrides the key does not hide it
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("scheme=scck2\nnrx=2\nframes = ten\nebn0=inf\n")
        assert main(["--config", str(cfg_file), "--frames", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_file}:3: key 'frames' expects an integer, got 'ten'\n")

    def test_missing_nrx_exits_1(self, capsys):
        assert main(["--scheme", "scck2", "--ebn0", "1"]) == 1
        assert capsys.readouterr().err == "error: --nrx is required\n"

    def test_ebn0_range_with_too_many_steps_exits_1(self, capsys):
        assert main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "0:5e-324:1"]) == 1
        assert capsys.readouterr().err == (
            "error: ebn0 range '0:5e-324:1' has inf steps, not under 10000\n")

    def test_zero_workers_exit_1(self, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "inf",
                   "--frames", "1", "--symbols-per-frame", "1", "--nsub", "32",
                   "--cp", "4", "--workers", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: worker count")

    # argparse alone reads a value that starts with "-" and is no plain number as a flag
    @pytest.mark.parametrize("ebn0,grid", [("-6,0", "-6.0,0.0"), ("-6:2:-4", "-6.0,-4.0")])
    def test_negative_ebn0_after_a_space(self, tmp_path, ebn0, grid):
        def run(*flag):
            out = tmp_path / "run.csv"
            assert main(["--scheme", "scck2", "--nrx", "2", *flag, "--frames", "1",
                         "--symbols-per-frame", "1", "--nsub", "32", "--cp", "4",
                         "--out", str(out)]) == 0
            return out.read_bytes()

        assert run("--ebn0", ebn0) == run("--ebn0=" + ebn0)
        assert f"ebn0={grid} " in read_csv(tmp_path / "run.csv")[0]

    def test_infinite_ebn0_range_exits_1(self, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "0:2:inf"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ebn0 range needs finite start:step:stop, got '0:2:inf'\n")

    def test_out_of_range_ebn0_exits_1(self, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "0,4000"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ebn0 4000.0 dB is out of range: its noise variance is not "
            "a finite positive float\n")

    def test_overflowing_ebn0_exits_1(self, capsys):
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "0,1e400"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ebn0 '1e400' is not a finite number; write inf for no noise\n")

    # one value per setting, each different from its default; out is set per run
    SETTING_VALUES = {"scheme": "sm-4qam", "ntx": "2", "nrx": "3", "ebn0": "0,3",
                      "frames": "3", "seed": "5", "out": None, "taps": "3", "nsub": "32",
                      "cp": "4", "symbols_per_frame": "2", "max_bit_errors": "40",
                      "workers": "2"}

    @pytest.mark.parametrize("name", list(SETTING_VALUES))
    def test_config_key_matches_flag(self, tmp_path, name):
        def run(side):
            values = dict(self.SETTING_VALUES, out=str(tmp_path / f"{side}.csv"))
            in_file = {name: values.pop(name)} if side == "file" else {}
            cfg_file = tmp_path / f"{side}.cfg"
            cfg_file.write_text("".join(f"{k.replace('_', '-')} = {v}\n"
                                        for k, v in in_file.items()))
            flags = [arg for k, v in values.items() for arg in ("--" + k.replace("_", "-"), v)]
            assert main(["--config", str(cfg_file)] + flags) == 0
            return (tmp_path / f"{side}.csv").read_bytes()

        assert run("file") == run("flag")

    @pytest.mark.parametrize("lines", ["scheme=qpsk\nnrx=2\nebn0=1\n",
                                       "scheme=qpsk\nntx=2\nnrx=2\nebn0=1\n"])
    def test_unknown_config_scheme_exits_1(self, tmp_path, capsys, lines):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(lines)
        assert main(["--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown scheme 'qpsk', expected one of {tuple(sim.SCHEMES)}\n")

    def test_missing_scheme_exits_1(self):
        assert main(["--nrx", "2", "--ebn0", "10"]) == 1

    def test_workers_flag(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["--scheme", "scck2", "--nrx", "2", "--ebn0", "0,4",
                   "--frames", "4", "--symbols-per-frame", "2", "--nsub", "32",
                   "--cp", "4", "--workers", "3", "--out", str(out)])
        assert rc == 0
        _, _, points = read_csv(out)
        assert len(points) == 2

"""Pinned sha256 digests of the byte-stable artifacts of a sweep run, and of
the file each single-artifact subcommand writes on a tiny input.

Every sweep.csv, sweep.svg and summary.json a run writes is hashed, and the
diagram_*.csv files of each directory are hashed together, in name order.
summary.json echoes the run's out_dir, so that path is replaced by a fixed
string before hashing.

The digests in GOLDEN were generated by the code before the sweep engine was
unified, and those in SUBCOMMANDS by the code before the CLI's readers,
writers and parser were merged; both pin that behaviour: a refactor or
speed-up must leave them as they are. tiny_auto (auto embedding) was pinned
before the unread max_lag setting was deleted; only its summary.json digest
changed then, because the echoed embedding became {"mode": "auto"}. To change
a digest on purpose, run the failing test, copy the digests its assertion
message prints into GOLDEN (or SUBCOMMANDS), and say in CHANGES.md why the
artifacts changed.
"""

import hashlib
import json
import os

GOLDEN = {
    "case_a": {
        "diagram_*.csv":
            "776c6b32c51cde9b5d2bf30038232f83adc9abdf91b3e508ab0038ac7b79c021",
        "summary.json":
            "a1ab2a996b1d91f309884d1626a6c62e9df8544b6b58ba297f2f1f3cd645f5f6",
        "sweep.csv":
            "ca8c4695928b338d33edeb3bf051289b3a53500cef145d467fc35698a2e8610c",
        "sweep.svg":
            "2f306cc3315d5bf8b053c7b320f0af22b8b5585ef8fac367cbad1c48b36196ba",
    },
    "case_b": {
        "noise_00/diagram_*.csv":
            "60067f90b743c4466599f271fad658e6701efc21c954463e39360b26b3d38f38",
        "noise_00/sweep.csv":
            "5a02962fb21a1503908b91f85b68a61c658ccd64b9dfa723c54ce999d715d14f",
        "noise_00/sweep.svg":
            "5d370ebd0bb504fa551281085b08e2df2adda208e572c1b6c4671625a29388ae",
        "noise_01/diagram_*.csv":
            "65ffccc6dc7156235032f22f36f41c81f36f988025cc33b61862febbd68b3604",
        "noise_01/sweep.csv":
            "fb29fb7e4c60139da5c7900d67808c56cf787431d48be2caf2825b4d52fe31eb",
        "noise_01/sweep.svg":
            "b3fb28d8849f68f65e8374f2157786b87fd0e04fc18a9d38aa463ec927463300",
        "noise_02/diagram_*.csv":
            "c72b4bdf5f160abd0ad8a580b782ea713d176ad4d33b5b883e12ea5d94b6fa60",
        "noise_02/sweep.csv":
            "e1f3cf7ad06d2c0133833309a2ba14f6237e46295530664616833c3380999d70",
        "noise_02/sweep.svg":
            "7b9e589ad02dd998c781fd429100c578437af3def775d8e0c9e4f5fcc3fae6f4",
        "summary.json":
            "fd049c0e8e1ce5db2daf6045a3bc7e769fec4d391dc15723e0718a7a1f04c1c3",
    },
    "case_c": {
        "diagram_*.csv":
            "e09486b2d33b7754b412c74c06b9c7b48d706696a07653d079d60f1483b6e0c8",
        "summary.json":
            "d2d994475e792976ce84e030db3380dfbfbb23e518e466b9e7f3314890514637",
        "sweep.csv":
            "d664d8c18d031c0e7c2a8c4d3312ef211c7984f34381ce1f98316a6db6f0fbd3",
        "sweep.svg":
            "84a5e98e21f1492248033850e8937650351d0cc0112aa575d2f80b988ed4f2d0",
    },
    "tiny_two_level": {
        "noise_00/diagram_*.csv":
            "fa94103421c92edf4b481051996e90ab3b0c2cd438660ace2d7acf7169eb7861",
        "noise_00/sweep.csv":
            "de4e7fa226dfae81a2588496233b04718056d7841c8f8ba32281896f2418cc92",
        "noise_00/sweep.svg":
            "20249574f17f393a8c080abae08953fe005b6c5b8f354d130b49c30ca61bcb59",
        "noise_01/diagram_*.csv":
            "aeb9847b3b33967f4beca51b8c862ebf6f372aca9f5f70f5ac027247b67063e2",
        "noise_01/sweep.csv":
            "b84c4824b3ef7e330a2c9721b5a6a68442f7a8abbe9c23d53f02085c046315ff",
        "noise_01/sweep.svg":
            "c146c65acfbe189c2047aa954292dc1b4a979286b7786362d5bf19e72e99fcfe",
        "summary.json":
            "b2cdcecff21e6a79c0bf56d4ac9f38760007033b818d36c56540c12f062cf0cc",
    },
    "tiny_auto": {
        "noise_00/diagram_*.csv":
            "f7994a3177935060a634a04dc7c146ba09a491eef3a93d5acf4b4ef82ad47bf7",
        "noise_00/sweep.csv":
            "288f771a156127923117bbacd5370f28e7e6608394ebbb8b97deb92621eecd39",
        "noise_00/sweep.svg":
            "b34c45f20faf2847c74a9b936804509146916a292b04cf404ee66431372c9de6",
        "noise_01/diagram_*.csv":
            "eb70cb64d384fd6d93ed9da41868d3ff9e648baac21421459b88b2c2c203f35c",
        "noise_01/sweep.csv":
            "d93f19c1d4eaf284c0cab44397d9e2bb10c59cd762435e1583e590db7ade2fca",
        "noise_01/sweep.svg":
            "ce347e56640d527897eef8c6070b6c3cce56fc5cf12cff793555c172d59adea3",
        "summary.json":
            "ce7a1cfeff21b5bc29c78acea02cd40843f38c0afecd4ac0abdb06919fb590e0",
    },
}

# output file of each run in tests/test_cli.py SUBCOMMAND_RUNS -> sha256
SUBCOMMANDS = {
    "simulate_noise":
        "262f210628552ce7a3e8b200d22ccf5fa4627e462483be03ad76d2b15fd29261",
    "embed_fixed":
        "90ee53df021d45f9aa1521f633ed5fa0a758f7a08f2455c01db0dcf01cf8665f",
    "embed_auto":
        "5aa1c02162dec802058c16352929675d0878d1a762f7cdd3aa2416e1b7b071bb",
    "persist":
        "4fb9ccd2c4a5f53e3b462f597630e9967f89897f1f9c3e15c7239a9c132bd574",
    "lyapunov_flags":
        "61d1c1c7effd1d2d6d41ebafd229c9408eb607ce90b39c271199ce854bb33bad",
    "lyapunov_config":
        "234ea6f348a85a6f87b92f335860e344a13040778e481e67d52bd1a9bdc9584c",
    "correlate":
        "68dc89ccc41b51defa4a4219d56e4a259fffdd33e5ab16e63fb784f390ca2436",
    "render_config":
        "726233596af0d1c214f25a569a6f7bea5688fe0b51af7f14e1329600b860f1a6",
    "render_critical":
        "91b4db126f1dcdf40789700902fa70e059994251ff476ef72ad994e7e59e19e2",
}


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(out_dir) -> dict:
    """Relative path (or 'dir/diagram_*.csv') -> sha256 hex digest."""
    out_dir = str(out_dir)
    digests = {}
    diagrams = {}
    for dirpath, _, names in os.walk(out_dir):
        rel_dir = os.path.relpath(dirpath, out_dir)
        for name in sorted(names):
            with open(os.path.join(dirpath, name), "rb") as fh:
                blob = fh.read()
            rel = os.path.normpath(os.path.join(rel_dir, name))
            if name.startswith("diagram_") and name.endswith(".csv"):
                h = diagrams.setdefault(os.path.join(rel_dir, "diagram_*.csv"), hashlib.sha256())
                h.update(name.encode() + b"\n" + blob)
            elif name in ("sweep.csv", "sweep.svg", "summary.json"):
                if name == "summary.json":
                    blob = blob.replace(json.dumps(out_dir).encode(), b'"<out_dir>"')
                digests[rel] = hashlib.sha256(blob).hexdigest()
    for key, h in diagrams.items():
        digests[os.path.normpath(key)] = h.hexdigest()
    return dict(sorted(digests.items()))


def assert_golden(name: str, out_dir) -> None:
    got = artifact_digests(out_dir)
    assert got == GOLDEN[name], f"{name} digests changed; got {json.dumps(got, indent=4)}"

"""Golden outputs: the CLI's answers pinned byte for byte.

Each case writes a seeded graph into a fresh directory, runs
``wmatch.cli.main`` there on a relative path (the path is part of the
JSON report), and hashes the exit code and stdout with SHA-256.  A
kernel change that keeps every determinant and adjugate exact keeps
every digest; a digest that moves means some command now answers
differently for the same seed.
"""

import hashlib
import random

import pytest

from wmatch import cli

SIZES = (6, 8, 10, 12, 14, 16, 18, 20)
KINDS = ("pm", "left-violator", "right-violator")


def golden_graph(kind, n):
    """Density-1/2 rows from a seed naming (kind, n).  ``pm`` plants a
    random permutation's edges; ``left-violator`` gives 3 left vertices
    neighbours in only 2 columns; ``right-violator`` is the mirror
    image, 3 right vertices with neighbours in only 2 rows."""
    rng = random.Random(f"golden:{kind}:{n}")
    rows = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
    if kind == "pm":
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] = 1
        return rows
    lines = rng.sample(range(n), 3)
    hits = rng.sample(range(n), 2)
    for i in lines:
        rows[i] = [0] * n
        for j in hits:
            rows[i][j] = rng.getrandbits(1)
        rows[i][rng.choice(hits)] = 1
    if kind == "right-violator":
        rows = [list(col) for col in zip(*rows)]
    return rows


def digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def command_digests(capsys, tmp_path, monkeypatch, command, kind):
    monkeypatch.chdir(tmp_path)
    out = {}
    for n in SIZES:
        rows = golden_graph(kind, n)
        name = f"{kind}-{n}.graph"
        body = "\n".join(" ".join(map(str, row)) for row in rows)
        (tmp_path / name).write_text(f"{n}\n{body}\n", encoding="utf-8")
        out[n] = digest(capsys, [command, name, "--format", "json", "--seed", str(1000 + n)])
    return out


# Recorded before the sparsest-line-first elimination order went in.
FIND = {
    "pm": {
        6: "746da6a8e0ff1462742bd41a85734deff41baeff8badbb9245688df5aa9bf301",
        8: "99f0396db22df3217e1894a6f9f0c6dde8ce588e65f1565c602cbe63facdb2bb",
        10: "cc1d1ac3839b567fef4b1dd67111c2438ff95ad0678d7cbdef064eeb27051e82",
        12: "ca71e0aab3b3742d8c072b52c2fbd92a9179462880917328089442fa46b2ef6b",
        14: "24d180e642dc8c0034aef7dd4d950af4af5592880e4fbbcef6c179d74db544b2",
        16: "036764396fb8f7e333232b38dc3f6261342271795bf78330b55a06f5c5375dcb",
        18: "48e9728c5021fdf7f22c136801495eac101bfa089e6c1d6aced8a695b5639562",
        20: "4fba4d022ee942f8d0cce074366a3dee3799143c76382dc64d38dc3d4c3d715f",
    },
    "left-violator": {
        6: "e2735806944d7bcb36dfdd297d94666deabbfe74d6fc2be5de1c1f62231c931f",
        8: "aa1e23f66bb9e30e0b928fb85d60d0bbfee27b9bb318ba75d6c06095c862b446",
        10: "8c9a24a729db423c33881fb84fd1187b69c635160d846814051b07de5ca912db",
        12: "e908d08003d3e0e87368dff0a826abfac85abfdd2d9cf679ba1814ded090ee7a",
        14: "5a280c5e59827a1bfd0d661934352b9cb25a5dcd792c2791310b236d82b35fba",
        16: "fb7445d67e0410f169d93ec4f11b576ad74683e7bc1d52e03cfbc96f42c8fd47",
        18: "05a8fb53e52e404efeec55497ef5896427018d773fba33770ca927db572884aa",
        20: "e9631a0a60120561f77a10c1957136a815a71a725ad1b707d238a560fc1634d3",
    },
    "right-violator": {
        6: "a5931c3010a70749ae38bdfac202295c4461d66fbbea87806e9eb164191abdb2",
        8: "9cef3363e6ed49701eac41a0d36d3954e698755297d7fa8848a287f6124cf5e4",
        10: "8e211dbc912760a1a38bbdf5175d6b005ac0e93e2ef7f9f5734fe6f308eafc76",
        12: "d9f09adc4a4fcdb8b3bb2a0dbc122285f08de8ab00498b8c807a43ee0976092e",
        14: "302becb5d5ee0fa000fd26137fb8edb115da943d34ff460274c9677e95d881da",
        16: "27a9aa592158f836bed96d4e5b98a7647e14a8a023f58adae2c0baa93b45723d",
        18: "50ba31cac7e8f1e15a3fb8f80d981d620d706768a221f0e68f8133b75b1c1c60",
        20: "1ec361b7db2312c9f7dae8c1a1d2bbfdb0f19e9ef916e1c8336d0c9515c9f53d",
    },
}

DECIDE = {
    "pm": {
        6: "6d174f3644cc3f0c7c8a5388f3876e81207118684e713fb18c392cde54afbe98",
        8: "2b745e96a8ef911bc1b49c511b92c4765d8ed9d9b63f385db6e8464dd3e2e6bc",
        10: "9c4d066c17db616b204aabfc0106c13159ab25496d18be12ed6bf483629dcbb3",
        12: "6fac7cbde90d35fdf2f775d1dd9114a0709b6fd4bee5c80143f72283af4383ed",
        14: "2a7125819f6626fafd431b94426a9e5c8da16691410b0b6a3c5adeba5a160fd2",
        16: "53f5ef4bdb9182818b9895d91fd68c8819fdab918ae7713862a8883f38c1a344",
        18: "b0ca66387d8a676276c1f92a0b3bc85a524276b41d53d5382ea0744c5e41add3",
        20: "d4573a59487b0ce24391081b84b2f4f26b6cc2251e08aad2bf54acdef47ecdbe",
    },
    "left-violator": {
        6: "4be9cfe2fd3dd5e1575e6ed729aa69c23c1e80b0c36c701ba9b2a872b7ba7e77",
        8: "4a35a55137d45d585cfb37fc4753ce047ea4ebde37c9b86931c3e73262421b14",
        10: "4d6eb484e7f973e98e54e4965c29d66fcd0cb14c950a7ce62313779a08c61487",
        12: "657fe30256cf6215ae0fc26efc651a4bff220e3c5e358ff10c8ab4a7a0afdb92",
        14: "e50a76e2173299c5e3325b243237aae8187f11c641dfcbbe37ce9cef3f8df366",
        16: "fdfb40b3aa90115b18b6eaae2fea81c6a47c50f5cf65c75036d96a0a59b94f8d",
        18: "3118b2a9420f4f9821803e8f99f5c60d0c1d59cd913727da4c37871038d940d7",
        20: "b22fdab3eb5115f25d1591e6af8b5d8124bfd3d2abb62c2266cc25084f5c1674",
    },
    "right-violator": {
        6: "9eb29df438d2b78feda310e27ab0d0d7c796149439b765e268fffc29b1551d3d",
        8: "60d6da0c53fd6ba7fb8b58ff17fee7aadee6509a5248dd3700a91303a86c5bcc",
        10: "dad49ebd99331306ba53954669d94061553cefbceaf2b91164bda5d18945b027",
        12: "e11a0542e3d35667ba6dfaf8930aeee88d079001330d85cf1fc5eecf260d23c4",
        14: "7ea10e1b9b5f96ca28f561fd496f97e57e1d9c0b181425835d728992de7b35b3",
        16: "a793d4f0630b55a1dd294522fc4a58adda7421984e0fc127849309bcf208cc3a",
        18: "d9c5610d9a22d8edb3d62c4616888ec5a4cb8cb268a00cc25e46f433d31cff98",
        20: "b7143338e1fd3b535eb2b0f1702dc7e16c5303811500631e8ef9a57954e609ce",
    },
}

VERIFY_ALL_SEED_1 = (
    "9fd7884ae85c236270df1f82fd804857e4d86748e43fd84ef281d5e85caa6899"
)

# Recorded before the coverage checks moved onto one driver.
VERIFY_ALL_MORE = {
    ("text", 1): "7d41833d3cd97f07fdb5810a5058c0540fa997bd6f8c618df2be4ff88b6ff394",
    ("json", 2): "92c578fd78a0797f65ae2e2e1472767b459e84c99ed5ef5600dcc936a85d581e",
}


@pytest.mark.parametrize("kind", KINDS)
def test_find(capsys, tmp_path, monkeypatch, kind):
    assert command_digests(capsys, tmp_path, monkeypatch, "find", kind) == FIND[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_decide(capsys, tmp_path, monkeypatch, kind):
    assert command_digests(capsys, tmp_path, monkeypatch, "decide", kind) == DECIDE[kind]


def test_verify_all(capsys):
    argv = ["verify", "all", "--format", "json", "--seed", "1"]
    assert digest(capsys, argv) == VERIFY_ALL_SEED_1


@pytest.mark.parametrize("fmt, seed", list(VERIFY_ALL_MORE))
def test_verify_all_text_and_other_seed(capsys, fmt, seed):
    argv = ["verify", "all", "--format", fmt, "--seed", str(seed)]
    assert digest(capsys, argv) == VERIFY_ALL_MORE[fmt, seed]

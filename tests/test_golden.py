"""Golden outputs: the CLI's answers pinned byte for byte.

Each case writes a seeded graph (and, for ``hungarian`` and ``mwpm``, a
seeded weight file) into a fresh directory, runs ``wmatch.cli.main``
there on relative paths (the paths are part of the JSON report), and
hashes the exit code and stdout with SHA-256.  A
kernel change that keeps every determinant and adjugate exact keeps
every digest; a digest that moves means some command now answers
differently for the same seed.
"""

import hashlib
import random

import pytest

from wmatch import cli, linalg

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


def golden_weights(n):
    """Weights below 10^(n // 4) from a seed naming n, so the small
    sizes tie often and the large ones rarely."""
    rng = random.Random(f"golden:weights:{n}")
    hi = 10 ** (n // 4)
    return [[rng.randrange(hi) for _ in range(n)] for _ in range(n)]


def write_rows(path, rows):
    body = "\n".join(" ".join(map(str, row)) for row in rows)
    path.write_text(f"{len(rows)}\n{body}\n", encoding="utf-8")


def digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def command_digests(capsys, tmp_path, monkeypatch, command, kind, fmt="json"):
    """Digest per size of ``command`` on the ``kind`` graph: ``find`` and
    ``decide`` with seed 1000 + n, ``mwpm`` with the size's weights,
    ``hungarian`` on the weights alone (``kind`` None, no graph)."""
    monkeypatch.chdir(tmp_path)
    out = {}
    for n in SIZES:
        graph = f"{kind}-{n}.graph"
        weights = f"{n}.weights"
        if kind is not None:
            write_rows(tmp_path / graph, golden_graph(kind, n))
        write_rows(tmp_path / weights, golden_weights(n))
        args = {
            "find": [graph, "--seed", str(1000 + n)],
            "decide": [graph, "--seed", str(1000 + n)],
            "mwpm": [graph, weights],
            "hungarian": [weights],
        }[command]
        out[n] = digest(capsys, [command, *args, "--format", fmt])
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

# Recorded before maximum_matching became one search per left vertex.
# Keyed by (command, format, graph kind); hungarian reads no graph.
MORE = {
    ("find", "text", "pm"): {
        6: "ae7f8cb9cb17a7dc201e873b198e72ed19faf020ac99e79ee7c65c92a4be5cda",
        8: "cb629e3ee6b20fe7c897fcb1cbdfda77c6c9d14477cba24b4a9e2a66dc810612",
        10: "ca4500d1f85ac6fcfbd066d9a396f06e7742c7cd55f3d40c3c11c18e771c1eb2",
        12: "b827fdf56fbc70c22588043314d91d5c689ad9fdae4ed8bdfe0fb444dc8b1ec0",
        14: "7789f496c4afbd2b0d82ece1b0e5bba9908f9eda1b3908e7d33ea19d43b15288",
        16: "7f40fc528ca95315d5da72fbbc9aa226625e91b869b6a6fe9249bf32d6e0f5e5",
        18: "49ae6310758083c8004edf4a14f616bb984fa96c6a9f6c2015688a9ae1545bf0",
        20: "9a7226d57d4d5e1fbb0b6532d4a494af61d81b3da07c3c6c0256885dd6d2f9a8",
    },
    ("find", "text", "left-violator"): {
        6: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        8: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        10: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        12: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        14: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        16: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        18: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        20: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
    },
    ("find", "text", "right-violator"): {
        6: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        8: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        10: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        12: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        14: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        16: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        18: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
        20: "5c5f09592eca90555ff470125c44e0126cd339216e78c7f6326225c0524acc3b",
    },
    ("decide", "text", "pm"): {
        6: "fc11bc09810f74f06293d36001ba45b5ccb03162fa052bc6f97e97a50de77634",
        8: "011163b2cdfa0a018ab1e04e110a17b26e31e1467ab4099fbe95b9ed956ea2b9",
        10: "0b49fad61aaeecd3f2cf943ba64a27932c1aa0f2790124ff93ebd2a6aa9d914b",
        12: "49db7073c7ecc9f3888ef2eed856684c87c094aff9c5b9cdc9762140a09fb7c8",
        14: "5db5fde5fe3c9fdadcbec8638a436f46d0ade9ec21f8893330bcd0557e6160a5",
        16: "62eb0f1ea8992dd7e651b2a244a63cf8bd6d5a68097147380dcd04697a46719b",
        18: "4d718cac5eb3917de715ef3fd26e18510fd4e6c9841b0bd22a7e7e1fbe2a6c25",
        20: "4835ee8ee67451d8b14ca7cc0d8c11dd2529018e4fdf913894332e4e1529614b",
    },
    ("decide", "text", "left-violator"): {
        6: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        8: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        10: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        12: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        14: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        16: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        18: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        20: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
    },
    ("decide", "text", "right-violator"): {
        6: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        8: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        10: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        12: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        14: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        16: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        18: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
        20: "b1c384940b978d6da7c27842fd0956d5cc8001182a829071a33a7d48b9ccb13b",
    },
    ("mwpm", "json", "pm"): {
        6: "bebb0016f4e3525ea6ffcbde461b9949ff3df0a39235985b1c6b1cb8d8e4618e",
        8: "7d78e9cc374ff6e052550d2847ef46c623c35eb3b98ac74cf415ecc05f7f24a1",
        10: "4aae3170f847347c073c2b80481f0678d597e6f86da94aa2c9b8bc7a34a23351",
        12: "7aa20c25943bcc170ef770e920351466cf5161ac7cd901b7a214f1e8ef9669d5",
        14: "36f26c9318ad35aa0cffe45d595784bb1b7ee7e27a76cbe366d9bc40efe27742",
        16: "7c90a89744f54582c569077dcfcc444758958941097a615035d2466d25c02b7b",
        18: "04c582dfb8fe2faa0d0915be6299afb6f1926334fd53869206ab989cdd6d807b",
        20: "d61ba384431538beb49d3677b3911d2dbebef808c75a929893cd92224a1cd7fa",
    },
    ("mwpm", "json", "left-violator"): {
        6: "bcbc5fa53e5dc6483b6622559ca11240389d5de0d31b9aecd93eaf900b54b3d6",
        8: "62a0103de8d99438fc9c550b82488f80e1e3a189f7f8713f8c9482a265fe1178",
        10: "c29aafdacb945efa2b35c467b53b9b591d8d6b8be810eedd87ab1220dc8b0613",
        12: "a3bf22f02cdb3097a60eb9aa17aba13d7500e122886a40779e2d78bca6258f9d",
        14: "ee804d45427b8fc36e7b5ae2a93527246e69c991f7c2d49227a053d185e3c729",
        16: "52262fdf694fec585b79de81f354beb24dcf1af12a338e19c27f28c39d4f7d0b",
        18: "a665ecea7b5afb895951213bced24d169b0febd135dcacd47e28ee6b908ca1c2",
        20: "588c453cc406db921128529baca55198b12af926ea4427522cc346b4edf53152",
    },
    ("mwpm", "json", "right-violator"): {
        6: "d17fdfde5307a86a877b5a8f3f9989a9837422a7738ec0e84e60cc2d0424f9ca",
        8: "08fd79cf2a4a3dd091b5fc4e97a8cdca141acff11d34a0fcbafa90c42ab72165",
        10: "9903a5105fa068f1d66fdcdd85fde75c6e734947ce74a820f8127853412458bd",
        12: "1d7865f80467cd087571a1712765bdd592aa1a381910d5d113e7532769c22759",
        14: "98b87e8372465e08eb5bd5e578433df915ea74c5b8c62c5e877d28aa23b08762",
        16: "b851303bbc6301389f0945dcdefdc9f4d8b0def92cc5a72a5379b5a8f169ec24",
        18: "6388d5eb69e7d30e2e226facf99ade6aab4a9f1c16044f7bff1175f86ea4cf8b",
        20: "f5726209633efac5fcc2576f61b09acb9a7ab447715a49ce8a204b3300b111a5",
    },
    ("mwpm", "text", "pm"): {
        6: "d562998efb060aa51f6b8fa674231ddabbaf7b813b49c698cdc1d1ed9504609d",
        8: "2f39e4847e5c9d1b66ac125fa26069c69309a3dd8adbddb1ebbcd9b4a4b4a41a",
        10: "e3b11c253cc385089c8dd480817ccb6351ccbc168a5fdc252622a2344d99ab1f",
        12: "0be26b45bce32564b3dbdfafa5d6e1ca08197e2889fcb56a9a2649cd5c7ced29",
        14: "6ee4e52548c1dea9db5c7912529bc5eddd5c335bb1dff5b506b6317fb264c639",
        16: "93d04a861154edcac9b8b8f16c1c3f1f9550bcefcb88325a5e7ffe403e7a05c3",
        18: "58c00cf9b741146a714f971eaddc71321e0571530ebfcd4bcbba0c4bc4157043",
        20: "8412442f9ce9153b26814868f780e032fefb22d69f212d33c1cf9da495a1d04b",
    },
    ("mwpm", "text", "left-violator"): {
        6: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        8: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        10: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        12: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        14: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        16: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        18: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        20: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
    },
    ("mwpm", "text", "right-violator"): {
        6: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        8: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        10: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        12: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        14: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        16: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        18: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
        20: "86a54fb939e6ff62d4a842946215052ef403e3616d0cfae282928621b6842347",
    },
    ("hungarian", "json", None): {
        6: "cec39ceb76b840f6bbab50b55726d6f895669a411fd6e734055500c4206ab598",
        8: "153fcf024c3746b93c66ff5e7ed5a6d6cd285dc144d276f90797730f02def0b5",
        10: "15f07a4b10d42c369ab8a1a0125b55bc6120620963354aa9fa96085b29a0a8ea",
        12: "63a1cba562f459c23a2253e0f512af2a49e247de2ee228011441287386e41dd3",
        14: "969f9812ed35e1ea6053f86b6b73b8c612b0d236b131ff086bb25122fdf82541",
        16: "15ebe38d7969cc73f73c9c37f01cac9a275fcccedf244aafaf1bcbfe89cc0eb9",
        18: "5a4367f2a1461592c4918ac68fa2147ec5a1a98c34232d63500d89e26dcd8e86",
        20: "2c77a11030a336cd827c78df789e268ceaf6385d4bfc4eb65141af2c75ce2015",
    },
    ("hungarian", "text", None): {
        6: "f475acf6a349d2972448acc8fe04f769ce3ceb48fb65c45fbe4a794c436cb5a0",
        8: "9fcddbcf74462f7d30ba1b65a24008e2ac0d82622f43e6d8d8b7e7209a455648",
        10: "5879479ab6c17ac4afd9ca0c149e0d68f9fba77e3127b6c76f53e2367bdd4e27",
        12: "79489a0e618d2206491b62099d44458cf9f64f3d91dabc04040f453b938b979a",
        14: "28602adad414bdd3f0a6689af22ee96b2099424d9629c21404256b92e3362b8f",
        16: "d34b6fd332006d64cecbe7c342de0d4ee47d1483e2dbeb04cf1897dfc8cbdd90",
        18: "a30405ee9b8d1da3454635adee54972676901a98355dd7806cbb90349edb9da3",
        20: "e08a1e9ad7a8e31a58431f1009bfad63ecc0452949462b09f078115b45793f1f",
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


@pytest.mark.parametrize("command, fmt, kind", list(MORE))
def test_text_and_weighted_commands(capsys, tmp_path, monkeypatch, command, fmt, kind):
    digests = command_digests(capsys, tmp_path, monkeypatch, command, kind, fmt)
    assert digests == MORE[command, fmt, kind]


def test_verify_all(capsys):
    argv = ["verify", "all", "--format", "json", "--seed", "1"]
    assert digest(capsys, argv) == VERIFY_ALL_SEED_1


@pytest.mark.parametrize("fmt, seed", list(VERIFY_ALL_MORE))
def test_verify_all_text_and_other_seed(capsys, fmt, seed):
    argv = ["verify", "all", "--format", fmt, "--seed", str(seed)]
    assert digest(capsys, argv) == VERIFY_ALL_MORE[fmt, seed]


# Recorded before Berge-Hall and the matching-determinant check kept
# each matching size and each evaluation's determinant once.  The first
# is the benchmark's verify warm-up; neither check reads --max-n.
VERIFY_REDUCED = {
    ("classical", "2"): "9ec1427cd21fda82120f6bc60da7e7589aecdacd8dfc433b02ea26c08e79b16c",
    ("det", "3"): "7a4fa7ae98db8a6767e436f432a4b3529ef7905b190fa6ecd8d48168d4a222ef",
}


@pytest.mark.parametrize("suite, max_n", list(VERIFY_REDUCED))
def test_verify_reduced_bounds(capsys, suite, max_n):
    argv = ["verify", suite, "--max-n", max_n, "--format", "json"]
    assert digest(capsys, argv) == VERIFY_REDUCED[suite, max_n]


# Recorded before the packed factorization read its rows straight off
# the exponents.  Each run's last factorization is above PACKED_MAX_K,
# so it and the Y phase after it run on list entries, which the sizes
# above never reach: (digest, the K of each factorization in order).
FIND_PER_ENTRY = {
    (32, "json"): ("44d174691472c3f054d692f086d56c89dfaa4988c33522fd4b73c0ff1c2ad796",
                   [64, 128, 256, 304]),
    (32, "text"): ("3d8f4ea00f5625754cc9418e1290cbdd7cc0dbf428e6db42c101e41355dbfa68",
                   [64, 128, 256, 304]),
    (48, "json"): ("5ed12e146b5255af5e263519851e54ce7f0f6c9dc809f39d196f8aac2b37a78a",
                   [64, 128, 256, 512, 596]),
    (48, "text"): ("4ab1068bc2cb17b704fd89a54b62509e5db25d48940a3b9f572a612117b1ecc9",
                   [64, 128, 256, 512, 596]),
}


@pytest.mark.parametrize("n, fmt", list(FIND_PER_ENTRY))
def test_find_per_entry_kernel(capsys, tmp_path, monkeypatch, n, fmt):
    k_bits = []
    ldu = linalg._ldu_mod

    def recording(e, k):
        k_bits.append(k)
        return ldu(e, k)

    monkeypatch.setattr(linalg, "_ldu_mod", recording)
    monkeypatch.chdir(tmp_path)
    graph = f"pm-{n}.graph"
    write_rows(tmp_path / graph, golden_graph("pm", n))
    argv = ["find", graph, "--seed", str(1000 + n), "--format", fmt]
    assert (digest(capsys, argv), k_bits) == FIND_PER_ENTRY[n, fmt]
    assert k_bits[0] <= linalg.PACKED_MAX_K < k_bits[-1]

import parrondoqw


def test_every_public_name_resolves():
    assert len(set(parrondoqw.__all__)) == len(parrondoqw.__all__)
    for name in parrondoqw.__all__:
        assert getattr(parrondoqw, name) is not None, name

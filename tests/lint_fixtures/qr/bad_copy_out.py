"""Fixture: an executor under qr/ copying the factors out of its segment."""


def finish(store, ops):
    # A session result is the segment's views, good until the next load;
    # copying here moves a matrix and every T out on every call again.
    factored = store.extract_matrix()
    ts = store.extract_ts()
    return factored, ts


class QRFactorization:
    def detach(self):
        store = self._segment[0]
        return store.extract_matrix(), store.extract_ts()  # the one place

    def R(self):
        return self._segment[0].extract_matrix().upper_triangular()

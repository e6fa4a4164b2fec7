"""Fixture: an anonymous segment made and its descriptor never closed."""

import os


def leak(size):
    fd = os.memfd_create("psm_leak", os.MFD_CLOEXEC)
    os.ftruncate(fd, size)
    return fd

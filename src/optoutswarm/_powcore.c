/* Compiled brute-force kernel for hashcash challenges (OpenSSL SHA-256).
 *
 * Same contract as optoutswarm._pow_python.solve_kernel. The prefix is hashed
 * into a context once; each candidate copies that midstate and appends its own
 * 8 little-endian bytes. The low-level SHA256_* API is used deliberately: the
 * one-shot SHA256() wrapper re-fetches the digest implementation on every call
 * under OpenSSL 3, which costs more than the hash.
 *
 * optoutswarm.pow_backend compiles this file on first use.
 */

#define PY_SSIZE_T_CLEAN
/* SHA256_* are deprecated, not removed, in OpenSSL 3; this keeps them quiet. */
#define OPENSSL_API_COMPAT 0x10100000L
#include <Python.h>
#include <openssl/sha.h>

static PyObject *
solve_kernel(PyObject *self, PyObject *args)
{
    const char *prefix, *target;
    Py_ssize_t prefix_len, target_len;
    long long max_rand, found = -1;
    unsigned char want[SHA256_DIGEST_LENGTH], digest[SHA256_DIGEST_LENGTH], suffix[8];
    SHA256_CTX base, ctx;

    if (!PyArg_ParseTuple(args, "y#y#L:solve_kernel", &prefix, &prefix_len,
                          &target, &target_len, &max_rand))
        return NULL;
    if (target_len != SHA256_DIGEST_LENGTH) {
        PyErr_SetString(PyExc_ValueError, "target must be a 32-byte digest");
        return NULL;
    }
    memcpy(want, target, sizeof want);
    SHA256_Init(&base);
    SHA256_Update(&base, prefix, (size_t)prefix_len);

    Py_BEGIN_ALLOW_THREADS
    for (long long test = 0; test <= max_rand; test++) {
        for (int i = 0; i < 8; i++)
            suffix[i] = (unsigned char)((unsigned long long)test >> (8 * i));
        ctx = base;
        SHA256_Update(&ctx, suffix, sizeof suffix);
        SHA256_Final(digest, &ctx);
        if (memcmp(digest, want, sizeof want) == 0) {
            found = test;
            break;
        }
    }
    Py_END_ALLOW_THREADS
    return PyLong_FromLongLong(found);
}

static PyMethodDef methods[] = {
    {"solve_kernel", solve_kernel, METH_VARARGS,
     "Smallest test in [0, max_rand] with SHA256(prefix + LE8(test)) == target, else -1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_powcore", "Compiled brute-force kernel for hashcash challenges.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__powcore(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
